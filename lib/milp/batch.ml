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

(* Re-validate an overlay's claimed optimum against the original model
   with the patched rhs substituted, through the certifier's point check
   at its default tolerances (integrality aside: an overlay solves the
   LP relaxation). Purely from model data — none of the solver's
   internal state is trusted. Bumps the certify counters so batched
   sweeps show up in the same audit accounting as certified MILP
   solves. *)
let tols = { Certify.default_tolerances with Certify.int_tol = infinity }

let check ?(patch = []) ~obj ~values t =
  Lp_stats.incr Lp_stats.certify_checks;
  let rhs = patched_rhs t patch in
  let p = Certify.check_point ~rhs ~obj ~tols (Simplex.prep_model t.prep) values in
  match p.Certify.failure with
  | None -> Ok ()
  | Some reason ->
    Lp_stats.incr Lp_stats.certify_failures;
    Error reason
