(* Batched scenario solves over one prepared model.

   One Simplex.prepare pays for the CSC standard form and the symbolic
   side of the LU work; every scenario is then a numeric overlay — a
   sparse patch of the row right-hand sides and of the column upper
   bounds — solved through Simplex.solve_prepared ?b ?ub ?warm. Neither
   moves the duals or the reduced costs of a basis: an optimal basis of
   the base problem (typically the healthy network) stays dual feasible
   under an rhs overlay, and under a bound overlay a nonbasic column
   whose range the overlay widened may rest at a bound its reduced cost
   does not suit, which the warm path repairs by flipping the column to
   its other bound when that bound is finite. The dual simplex then
   repairs primal feasibility in a few pivots; numerical trouble on the
   warm path, or a column no flip repairs, falls back to the cold primal
   inside solve_prepared itself.

   Thread-safety / determinism: a [t] is immutable after [prepare] and
   may be shared read-only across domains — each [solve] call builds
   fresh rhs and bound copies and a fresh solver state, and
   [Basis.create] copies the warm basis' column selection, so concurrent
   overlay solves never alias mutable state. A solve's pivot sequence
   depends only on (structure, patched bounds, patched rhs, warm basis),
   never on what other overlays ran before or beside it, which is what
   makes batched sweeps bit-identical across batch sizes and domain
   counts. *)

type t = {
  prep : Simplex.prepared;
  base_b : float array; (* private copy of the base rhs, length m *)
  base_ub : float array; (* the model's upper bounds, length nv *)
}

type outcome = {
  result : Simplex.result;
  basis : Simplex.basis option;
  warm_hit : bool;
}

let of_prepared prep =
  let sp = Simplex.prep_sparse prep in
  Lp_stats.incr Lp_stats.batch_prepares;
  { prep; base_b = Array.sub sp.Sparse.b 0 sp.Sparse.m;
    base_ub = snd (Model.bounds (Simplex.prep_model prep)) }

let prepare model = of_prepared (Simplex.prepare model)

let prep t = t.prep
let base_rhs t = Array.copy t.base_b

(* [base] with each [(i, v)] of [patch] substituted, in a fresh copy *)
let overlay base patch ~what =
  let a = Array.copy base in
  List.iter
    (fun (i, v) ->
      if i < 0 || i >= Array.length a then
        invalid_arg ("Batch: patch " ^ what ^ " out of range");
      a.(i) <- v)
    patch;
  a

let solve ?warm ?(patch = []) ?(ub = []) t =
  let b = overlay t.base_b patch ~what:"row" in
  let ub = overlay t.base_ub ub ~what:"column" in
  Lp_stats.incr Lp_stats.batch_overlays;
  (* [solve_prepared] bumps warm_hits exactly when the dual-simplex warm
     attempt finished the solve; diffing the domain-local counter around
     the call attributes the hit to this overlay without racing other
     domains. *)
  let wh0 = Lp_stats.read Lp_stats.warm_hits () in
  let result, basis = Simplex.solve_prepared ~b ~ub ?warm t.prep in
  let warm_hit = Lp_stats.read Lp_stats.warm_hits () > wh0 in
  if warm_hit then Lp_stats.incr Lp_stats.batch_warm_hits;
  { result; basis; warm_hit }

(* ------------------------------------------------------------------ *)
(* Independent overlay audit                                           *)

(* Re-validate an overlay's claimed optimum against the original model
   with the patched rhs and upper bounds substituted, through the
   certifier's point check at its default tolerances (integrality
   aside: an overlay solves the LP relaxation). Purely from model data
   and the patch — none of the solver's internal state is trusted, so a
   column the overlay closes (upper bound 0) is audited to carry
   nothing. Bumps the certify counters so batched sweeps show up in the
   same audit accounting as certified MILP solves. *)
let tols = { Certify.default_tolerances with Certify.int_tol = infinity }

let check ?(patch = []) ?(ub = []) ~obj ~values t =
  Lp_stats.incr Lp_stats.certify_checks;
  let rhs = overlay t.base_b patch ~what:"row" in
  let ub = overlay t.base_ub ub ~what:"column" in
  let p = Certify.check_point ~rhs ~ub ~obj ~tols (Simplex.prep_model t.prep) values in
  match p.Certify.failure with
  | None -> Ok ()
  | Some reason ->
    Lp_stats.incr Lp_stats.certify_failures;
    Error reason
