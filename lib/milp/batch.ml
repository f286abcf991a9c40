(* Batched scenario solves over one prepared model.

   One Simplex.prepare pays for the CSC standard form and the symbolic
   side of the LU work; every scenario is then a numeric overlay — a
   sparse patch of the row right-hand sides — solved through
   Simplex.solve_prepared ?b ?warm. Changing only the rhs never touches
   duals or reduced costs, so an optimal basis of the base problem
   (typically the healthy network) stays dual feasible for every
   overlay and the dual simplex repairs primal feasibility in a few
   pivots; numerical trouble on the warm path falls back to the cold
   primal inside solve_prepared itself.

   Thread-safety / determinism: a [t] is immutable after [prepare] and
   may be shared read-only across domains — each [solve] call builds a
   fresh rhs copy and a fresh solver state, and [Basis.create] copies
   the warm basis' column selection, so concurrent overlay solves never
   alias mutable state. A solve's pivot sequence depends only on
   (structure, bounds, patched rhs, warm basis), never on what other
   overlays ran before or beside it, which is what makes batched sweeps
   bit-identical across batch sizes and domain counts. *)

type t = {
  prep : Simplex.prepared;
  base_b : float array; (* private copy of the base rhs, length m *)
}

type outcome = {
  result : Simplex.result;
  basis : Simplex.basis option;
  warm_hit : bool;
}

let of_prepared prep =
  let sp = Simplex.prep_sparse prep in
  Lp_stats.incr Lp_stats.batch_prepares;
  { prep; base_b = Array.sub sp.Sparse.b 0 sp.Sparse.m }

let prepare model = of_prepared (Simplex.prepare model)

let prep t = t.prep
let base_rhs t = Array.copy t.base_b

let patched_rhs t patch =
  let m = Array.length t.base_b in
  let b = Array.copy t.base_b in
  List.iter
    (fun (i, v) ->
      if i < 0 || i >= m then invalid_arg "Batch.solve: patch row out of range";
      b.(i) <- v)
    patch;
  b

let solve ?warm ?(patch = []) t =
  let b = patched_rhs t patch in
  Lp_stats.incr Lp_stats.batch_overlays;
  (* [solve_prepared] bumps warm_hits exactly when the dual-simplex warm
     attempt finished the solve; diffing the domain-local counter around
     the call attributes the hit to this overlay without racing other
     domains. *)
  let wh0 = Lp_stats.read Lp_stats.warm_hits () in
  let result, basis =
    Simplex.solve_prepared ~b ?warm t.prep
  in
  let warm_hit = Lp_stats.read Lp_stats.warm_hits () > wh0 in
  if warm_hit then Lp_stats.incr Lp_stats.batch_warm_hits;
  { result; basis; warm_hit }

(* ------------------------------------------------------------------ *)
(* Independent overlay audit                                           *)

let feas_tol = 1e-5
let obj_tol = 1e-6

(* Re-validate an overlay's claimed optimum against the original model
   rows with the patched rhs substituted: row senses, variable bounds,
   and the recomputed objective. Purely from model data — none of the
   solver's internal state is trusted. Bumps the certify counters so
   batched sweeps show up in the same audit accounting as certified
   MILP solves. *)
let check ?(patch = []) ~obj ~values t =
  Lp_stats.incr Lp_stats.certify_checks;
  let model = Simplex.prep_model t.prep in
  let b = patched_rhs t patch in
  let conss = Model.conss model in
  let lbs, ubs = Model.bounds model in
  let fails = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> fails := s :: !fails) fmt in
  Array.iteri
    (fun j v ->
      let eps = feas_tol *. (1. +. Float.abs v) in
      if v < lbs.(j) -. eps || v > ubs.(j) +. eps then
        fail "column %d = %g outside [%g, %g]" j v lbs.(j) ubs.(j))
    values;
  Array.iteri
    (fun i (c : Model.cons) ->
      let act, scale = Certify.kahan_eval values c.Model.lhs in
      let tol = feas_tol *. (1. +. Float.max scale (Float.abs b.(i))) in
      let viol =
        match c.Model.rel with
        | Model.Le -> act -. b.(i)
        | Model.Ge -> b.(i) -. act
        | Model.Eq -> Float.abs (act -. b.(i))
      in
      if viol > tol then
        fail "row %s violated by %g (activity %g, rhs %g)" c.Model.cname
          (viol -. tol) act b.(i))
    conss;
  let _, objx = Model.objective model in
  let recomputed, oscale = Certify.kahan_eval values objx in
  if Float.abs (recomputed -. obj) > obj_tol *. (1. +. Float.abs oscale) then
    fail "objective %g <> recomputed %g" obj recomputed;
  match !fails with
  | [] -> Ok ()
  | fs ->
    Lp_stats.incr Lp_stats.certify_failures;
    Error (String.concat "; " (List.rev fs))
