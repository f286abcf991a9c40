(** Facade over {!Simplex} and {!Branch_bound}.

    Dispatches pure LPs to the simplex and mixed-integer models to
    branch-and-bound, with a single option record mirroring how Raha
    configures its backend (§6: timeouts; §8: node budgets). *)

type options = {
  time_limit : float;  (** seconds of wall clock; default [infinity] *)
  max_nodes : int;
  abs_gap : float;
      (** absolute optimality gap, shared with branch-and-bound and the
          certifier (derived from {!Branch_bound.default}) *)
  rel_gap : float;
  int_tol : float;
      (** integrality tolerance, shared with branch-and-bound and the
          certifier (derived from {!Branch_bound.default}) *)
  log : bool;
  branch_priority : int -> int;
  warm_start : float array option;
  plunge_hints : (int * float) list list;
      (** partial assignments plunged for initial incumbents; see
          {!Branch_bound.options} *)
  presolve : bool;
      (** run {!Presolve} before solving (default [true]); solutions are
          postsolved back to the original indexing, so this is externally
          invisible apart from speed *)
  dense_simplex : bool;
      (** solve LP relaxations with the legacy dense tableau
          ({!Dense_simplex}) instead of the revised engine (default
          [false]); forfeits warm starts and basis statuses *)
  cuts : Cuts.options;
      (** cutting planes for MILP solves ({!Cuts}: Gomory mixed-integer,
          knapsack cover and clique cuts over a managed pool). Default
          {!Cuts.default}; [Cuts.disabled]
          restores the cut-free search exactly. *)
  sx_iters : int option;
      (** simplex pivot budget per LP (default [None] = unlimited),
          threaded to {!Branch_bound.options.sx_iters} and the pure-LP
          path. Exhaustion is honest, never silent: a budget-dropped
          subtree degrades [Optimal] to [Feasible] (or [Infeasible] to
          [Unknown]) with the bound folded over the dropped parents —
          the admission-control knob a serving layer needs. *)
  pool : Parallel.Pool.t option;
      (** domain pool for concurrent branch-and-bound subtree solves
          (default [None] = inline). Results and counters are
          bit-identical for any pool width — see
          {!Branch_bound.options.pool}. A solve issued from inside a
          pool task never re-enters the pool (rounds run inline). *)
  bb_width : int;
      (** frontier width that triggers parallel subtree rounds; [<= 0]
          restores the pure sequential search. See
          {!Branch_bound.options.par_width}. *)
  bb_grain : int;
      (** per-subtree node budget within a round; see
          {!Branch_bound.options.par_grain}. *)
  branching : Branch_bound.branching;
      (** branching-variable selection rule (default
          {!Branch_bound.Reliability}; [Fractional]
          restores the legacy most-fractional rule exactly) *)
  heuristics : bool;
      (** enable the feasibility pump and RINS primal heuristics
          (default [true]; [false] keeps only the
          legacy diving cadence); see {!Branch_bound.options.heuristics} *)
  rins_freq : int;
      (** RINS cadence in nodes once an incumbent exists; [<= 0]
          disables RINS (default 200) *)
}

(** Defaults shared with branch-and-bound are derived from
    {!Branch_bound.default}; [presolve] defaults to [true]. *)
val default_options : options

type status =
  | Optimal
  | Feasible  (** limits hit; incumbent available, bound reported *)
  | Infeasible
  | Unbounded
  | Unknown  (** limits hit before any feasible point was found *)

type solution = {
  status : status;
  obj : float;
  bound : float;
  values : float array;
  statuses : Simplex.vstat array;
      (** optimal-basis status per variable (original indexing, presolve
          fixings filled with [At_lower]); empty for MILPs, non-optimal
          outcomes, and the dense engine *)
  certificate : Certify.t option;
      (** the certification verdict and residuals; [None] when
          certification is off or the outcome carries no point *)
  nodes : int;
  elapsed : float;
}

(** [solve model] solves and — unless [?certify] is [false] —
    re-validates the answer against the original model with
    {!Certify.check}. A failed certificate never raises: a bad claimed
    point degrades the status to [Unknown], a bad bound / open gap /
    failed dual certificate degrades [Optimal] to [Feasible], and the
    diagnostics land in [certificate], the [milp.solver]/[milp.certify]
    log sources and the [certify-failures] counter. *)
val solve : ?certify:bool -> ?options:options -> Model.t -> solution

(** [value sol v] reads variable [v] from the solution point. *)
val value : solution -> Model.var -> float

(** [bool_value sol v] rounds a binary variable to [true]/[false]. *)
val bool_value : solution -> Model.var -> bool

(** True when the solution carries a usable point (Optimal or Feasible). *)
val has_point : solution -> bool

(** Domain-local cumulative counter hooks — simplex pivots ([simplex],
    primal + dual across both engines), revised-engine internals
    ([dual-pivots], [factorizations], [eta-updates], [warm-attempts],
    [warm-hits]), branch-and-bound nodes ([bb-nodes]), presolve
    reductions ([presolve-rows]/[presolve-cols]/[presolve-bigm]),
    certification verdicts ([certify-checks]/[certify-failures]) and
    cutting-plane activity ([cuts-generated]/[cuts-applied]/
    [cuts-pruned]/[cut-audit-failures]) — in the shape
    [Parallel.Pool.create ~counters] expects; pass this to a pool to
    have solver work aggregated into its one-line stats summaries. *)
val stats_counters : (string * (unit -> int)) list

val pp_status : Format.formatter -> status -> unit
