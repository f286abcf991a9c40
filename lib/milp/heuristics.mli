(** Primal heuristics for the branch-and-bound search.

    Three incumbent finders over the node LP relaxation, all driven by
    bound changes only (the prepared LP is never re-built):

    - {!dive}: LP-guided diving — repeatedly fix the most fractional
      integer variable to its rounded value and re-solve, with one flip
      retry per variable on infeasibility. This is the solver's original
      "plunge", generalized so RINS can run it over restricted bounds.
    - {!pump}: a feasibility pump over roundings — fix every integer
      variable to the rounding of the relaxation point and let the LP
      repair the continuous part; on infeasibility, flip the most
      ambiguous roundings (fractional part closest to 1/2) one at a
      time, cumulatively, until the fixing becomes feasible or the flip
      budget runs out.
    - {!rins}: relaxation-induced neighborhood search — fix the integer
      variables on which the incumbent and the node relaxation agree,
      then {!dive} the remaining free neighborhood.

    Every candidate returned here is only a *proposal*: branch-and-bound
    re-checks it against the original model at the solver's integrality
    tolerance (the same tolerance the certifier enforces) before it can
    become the incumbent.

    All heuristics read the search's incumbent only through
    {!env.cutoff}. *)

type env = {
  lp :
    Simplex.basis option ->
    lb:float array ->
    ub:float array ->
    Simplex.result * Simplex.basis option;
      (** solve the prepared node LP under the given bounds, warm from
          an optional basis *)
  int_ids : int array;  (** integer-constrained variable ids *)
  int_tol : float;  (** integrality tolerance (also the flip epsilon) *)
  abs_gap : float;
  osign : float;  (** +1 for maximization, -1 for minimization *)
  cutoff : unit -> float;
      (** current incumbent objective in the internal maximization
          sense; [neg_infinity] when none *)
}

(** [dive env ?basis lb ub] fixes toward integrality from the LP optimum
    under [lb, ub]. Returns [(point, obj)] in the internal maximization
    sense when it reaches a point that is integral within [int_tol] and
    beats [cutoff () + abs_gap]. Bounds arrays are not modified. *)
val dive :
  env -> ?basis:Simplex.basis -> float array -> float array ->
  (float array * float) option

(** [pump env ?basis ~relax lb ub] starts from relaxation point [relax]
    (the current node's LP optimum) instead of re-solving it. *)
val pump :
  env -> ?basis:Simplex.basis -> relax:float array ->
  float array -> float array -> (float array * float) option

(** [rins env ?basis ~incumbent ~relax lb ub] dives the neighborhood
    where [incumbent] and [relax] disagree. Returns [None] without
    solving anything when the agreement set is empty or total (no
    neighborhood to search). *)
val rins :
  env -> ?basis:Simplex.basis -> incumbent:float array ->
  relax:float array -> float array -> float array ->
  (float array * float) option
