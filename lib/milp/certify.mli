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
    the answer is consistent with the model to the stated tolerances. *)

type tolerances = {
  feas_tol : float;
      (** max normalized primal residual / bound violation; default 1e-5
          (matches the absolute tolerance branch-and-bound accepts
          incumbents at, since row scales are >= 1) *)
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

(** [kahan_eval values e] is the Kahan-compensated value of [e] at the
    point [values], paired with the largest |term|: the natural scale
    for the residual tolerance of the row [e] came from. *)
val kahan_eval : float array -> Linexpr.t -> float * float
