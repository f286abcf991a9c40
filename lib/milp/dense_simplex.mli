(** Legacy two-phase primal simplex on a dense tableau.

    Kept as the reference engine behind the [dense_simplex] option for
    differential testing of the revised engine ({!Simplex}); the
    bounded-variable semantics, tolerances and pivot rules are
    unchanged from when this was the only LP kernel. Pivots count into
    the shared {!Lp_stats.pivots} counter. *)

type result =
  | Optimal of { obj : float; values : float array }
      (** Proven optimal; [values] is indexed by model variable id. *)
  | Infeasible
  | Unbounded
  | Iter_limit
      (** The iteration budget was exhausted before optimality. *)

(** [solve ?lb ?ub ?max_iters model] solves the LP relaxation of [model]
    (integrality is ignored). [lb]/[ub] override the model's variable
    bounds. The default iteration budget is [50 * (rows + cols) + 200]. *)
val solve :
  ?lb:float array ->
  ?ub:float array ->
  ?max_iters:int ->
  Model.t ->
  result
