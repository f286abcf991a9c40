(** Independent certification of solver answers.

    Every check here re-derives its verdict from the *original* model the
    caller built — never from the presolved/reduced model the engines
    actually solved — so a bug anywhere in the presolve → simplex →
    branch-and-bound → postsolve pipeline shows up as a failed
    certificate rather than a silently wrong report. The checks:

    - primal feasibility: per-row residuals of the claimed point, with
      compensated (Kahan) dot products, normalized by row scale;
    - variable bounds and integrality of integer-constrained variables;
    - objective recomputation against the reported objective value;
    - bound sanity: in maximization form, [obj <= bound + gap] always,
      and [bound - obj <= gap] when the result claims optimality;
    - for pure LPs with basis statuses, a dual-feasibility /
      weak-duality certificate: dual multipliers are reconstructed from
      the returned statuses against the original rows, reduced costs
      below a tolerance are clamped to zero (the clamp magnitude is part
      of the certificate), and the Lagrangian bound they imply must meet
      the claimed objective within [dual_gap_tol].

    Certificates are toleranced, not exact rational proofs: a pass means
    the answer is consistent with the model to the stated tolerances.

    {!check_compiled} is the one feasibility rule of the solver: the
    point section of {!check} calls it on the model it certifies, the
    branch-and-bound incumbent gate on the searched model it compiles
    once per search, and the audit inside {!Batch.solve} on the model
    it compiled once at prepare, with each overlay's patched rhs and
    upper bounds. *)

type tolerances = {
  feas_tol : float;
      (** max normalized primal residual / bound violation; default 1e-5 *)
  int_tol : float;  (** max distance to integrality; default 1e-5 *)
  obj_tol : float;
      (** max relative error between the reported objective and its
          recomputation at the claimed point; default 1e-6 *)
  abs_gap : float;  (** absolute optimality gap the solver ran with *)
  rel_gap : float;  (** relative optimality gap the solver ran with *)
  dual_tol : float;
      (** reduced costs within [dual_tol * scale] of zero are clamped
          when building the Lagrangian bound; default 1e-6 *)
  dual_gap_tol : float;
      (** max relative gap between the claimed objective and the
          reconstructed dual bound; default 1e-5 *)
}

val default_tolerances : tolerances

(** The tolerances a solve run at [int_tol], [abs_gap] and [rel_gap] is
    certified at: the defaults, with [int_tol] widened to
    [max 1e-5 (10 * int_tol)]. *)
val solver_tolerances : int_tol:float -> abs_gap:float -> rel_gap:float -> tolerances

(** The branch-and-bound incumbent gate's tolerances: [feas_tol] and
    [int_tol] are the smaller of [solver_tolerances ~int_tol]'s and
    [int_tol] ([1e-6] each at the default [int_tol]). No component is
    looser than certification's, so every point the gate admits passes
    the final certificate's point check. *)
val gate_tolerances : int_tol:float -> tolerances

(** [gap_allowance ~abs_gap ~rel_gap obj] is how far a bound may stand
    above the objective [obj] (maximization form) while the gap counts
    as closed: [max abs_gap (rel_gap * max 1 |obj|)]. *)
val gap_allowance : abs_gap:float -> rel_gap:float -> float -> float

(** Verdict of {!check_compiled}. A row's violation is normalized by
    [1 + |rhs| + max |term|] (activities are Kahan sums), a bound's by
    [1 + |bound|]; a NaN coordinate violates its bounds infinitely. *)
type point = {
  row_residual : float;
  bound_residual : float;
  int_residual : float;  (** worst distance to integrality *)
  obj_error : float;  (** [|recomputed - obj| / (1 + |obj|)]; [0.] without [obj] *)
  failure : string option;
      (** the first failed check: rows, then each variable's bounds and
          integrality, then the objective *)
  acts : float array;  (** row activities *)
}

(** A model compiled for repeated point checks: each row's terms and
    the objective's as flat arrays in [Linexpr.iter] order, with the
    right-hand sides, senses, bounds, integrality and names. Built once
    per model; checking against it walks arrays instead of a map per
    row, with the same terms in the same order. *)
type compiled

val compile : Model.t -> compiled

(** [check_compiled ?rhs ?ub ?obj ~tols cm values] checks [values]
    against the compiled model's rows (with right-hand sides [rhs] when
    given), bounds (with upper bounds [ub], indexed by variable id,
    when given), integrality and, with [obj], the claimed objective. A
    point of the wrong length fails with infinite residuals. Bumps no
    counter. *)
val check_compiled :
  ?rhs:float array ->
  ?ub:float array ->
  ?obj:float ->
  tols:tolerances ->
  compiled ->
  float array ->
  point

type t = {
  ok : bool;  (** every applicable check passed *)
  point_ok : bool;  (** primal feasibility + bounds + integrality *)
  obj_ok : bool;  (** reported objective matches recomputation *)
  bound_ok : bool;  (** bound sanity (and gap closure when optimal) *)
  dual_ok : bool option;
      (** [None] when no dual certificate applies (MILPs, missing basis
          statuses, or a numerically unusable reconstruction) *)
  max_primal_residual : float;  (** normalized; includes bound violations *)
  max_int_residual : float;
  obj_error : float;  (** relative recomputation error *)
  bound_violation : float;
      (** positive part of the violated bound inequality, 0 when sane *)
  dual_gap : float;
      (** |claimed objective - Lagrangian bound|, relative; [nan] when
          [dual_ok = None] *)
  dual_infeas : float;
      (** largest clamped reduced cost / dual sign violation, normalized;
          [nan] when [dual_ok = None] *)
  failures : string list;  (** human-readable description per failed check *)
}

(** [check ~model ~obj ~bound ~values ~statuses ()] certifies a claimed
    solution of [model]. [optimal] asks for the optimality-gap and dual
    checks on top of the consistency checks (default [false]).
    [statuses] are the structural basis statuses in original variable
    indexing ([[||]] when unavailable — skips the dual certificate).
    Bumps the [certify-checks]/[certify-failures] counters in
    {!Lp_stats}, and logs a structured warning on the [milp.certify]
    source when a check fails. *)
val check :
  ?tols:tolerances ->
  ?optimal:bool ->
  model:Model.t ->
  obj:float ->
  bound:float ->
  values:float array ->
  statuses:Simplex.vstat array ->
  unit ->
  t

val pp : Format.formatter -> t -> unit

