(** Facade over {!Simplex} and {!Branch_bound}.

    Dispatches pure LPs to the simplex and mixed-integer models to
    branch-and-bound, with a single option record mirroring how Raha
    configures its backend (§6: timeouts; §8: node budgets). *)

(** {!Branch_bound.options}, re-exported with its labels. *)
type options = Branch_bound.options = {
  max_nodes : int;
  time_limit : float;
  abs_gap : float;
  rel_gap : float;
  int_tol : float;
  log : bool;
  branch_priority : int -> int;
  warm_start : float array option;
  plunge_hints : (int * float) list list;
  engine : Simplex.engine;
  sx_iters : int option;
  cuts : Cuts.options;
  pool : Parallel.Pool.t option;
  par_width : int;
  par_grain : int;
  branching : Branch_bound.branching;
  heuristics : bool;
  rins_freq : int;
  on_incumbent : (float array -> unit) option;
}

(** {!Branch_bound.default}. *)
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
      (** the certification verdict and residuals; [None] when the
          outcome carries no point *)
  nodes : int;
  elapsed : float;
}

(** [solve model] solves and re-validates every answer that carries a
    point against the original model with {!Certify.check}. A failed
    certificate never raises: a bad claimed point degrades the status
    to [Unknown], a bad bound / open gap / failed dual certificate
    degrades [Optimal] to [Feasible], and the diagnostics land in
    [certificate], the [milp.solver]/[milp.certify] log sources and the
    [certify-failures] counter.

    [?presolve] (default [true]) runs {!Presolve} first; the solution is
    postsolved back to the original indexing, so this is externally
    invisible apart from speed. A solve issued from inside a pool task
    never re-enters [options.pool] (its rounds run inline). *)
val solve : ?presolve:bool -> ?options:options -> Model.t -> solution

(** [value sol v] reads variable [v] from the solution point. *)
val value : solution -> Model.var -> float

(** [bool_value sol v] rounds a binary variable to [true]/[false]. *)
val bool_value : solution -> Model.var -> bool

(** True when the solution carries a usable point (Optimal or Feasible). *)
val has_point : solution -> bool

(** The solver's counter registry ({!Lp_stats}) as [(name, read)]
    hooks, in declaration order — simplex pivots ([simplex], primal +
    dual across both engines), revised-engine internals ([dual-pivots],
    [factorizations], [eta-updates], [warm-attempts], [warm-hits]),
    branch-and-bound nodes ([bb-nodes]), presolve reductions
    ([presolve-rows]/[presolve-cols]/[presolve-bigm]), certification
    verdicts ([certify-checks]/[certify-failures]), cutting-plane
    activity ([cuts-generated]/[cuts-applied]/[cuts-pruned]/
    [cut-audit-failures]), batched overlays ([batch-prepares]/
    [batch-overlays]/[batch-warm-hits]) and branching ([sb-probes],
    [pseudocost-updates], [heuristic-solutions],
    [heuristic-rejections]). Each reads the calling domain's cumulative
    value, which includes pool work credited back from worker domains;
    {!Lp_stats.scope_enter} reads these by default. *)
val stats_counters : (string * (unit -> int)) list

val pp_status : Format.formatter -> status -> unit
