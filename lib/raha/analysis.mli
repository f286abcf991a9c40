(** Raha's front door: find the probable failure scenario and demand
    matrix that maximize WAN degradation (Fig. 4).

    Wraps {!Bilevel} with solving, limits (the §6 timeout feature — a
    solve interrupted by its time budget still reports the incumbent and
    the remaining optimality gap), result extraction, and the
    normalization the paper reports (degradation / average LAG
    capacity, §8.1). *)

type options = {
  spec : Bilevel.spec;
  time_limit : float;  (** seconds; [infinity] disables *)
  max_nodes : int;
  rel_gap : float;
  log : bool;
  seed_enumeration : int option;
      (** number of candidate scenarios (single-LAG failures, the greedy
          most-probable multi-failure, the empty scenario) simulated and
          fed to the solver as warm-start hints. [None] defaults to 6;
          [Some 0] disables seeding. *)
  domains : int;
      (** OCaml domains on which {!Cluster.analyze} solves a wave's
          blocks; {!analyze} itself runs on the calling domain. [1] (the
          default) is the exact sequential path; results are identical
          for any value. *)
  dense_simplex : bool;
      (** solve LP relaxations with the legacy dense tableau instead of
          the revised simplex (no sparse factorization, no dual-simplex
          warm starts; {!Milp.Branch_bound.options.engine}); default
          [false]; the [dense] arm of the [solver] bench turns it on. *)
  cuts : Milp.Cuts.options;
      (** cutting planes for the branch-and-bound solve
          ({!Milp.Cuts}: Gomory mixed-integer, knapsack cover and clique
          cuts over a managed pool). Default {!Milp.Cuts.default};
          [Milp.Cuts.disabled] (the [no-cuts] arm of the [solver] bench)
          restores the cut-free search exactly. *)
  sx_iters : int option;
      (** simplex pivot budget per LP relaxation
          ({!Milp.Branch_bound.options.sx_iters}); default [None] = unlimited.
          Exhaustion degrades the status honestly ([Optimal] →
          [Feasible], no incumbent → [Unknown]) — the per-query
          admission budget of the serving layer. *)
  bb_width : int;  (** Ignored. *)
  bb_grain : int;
      (** Ignored. [bb_width] and [bb_grain] configured the parallel
          subtree rounds branch-and-bound no longer has; they stay only
          while the repository benchmark reads them. *)
  branching : Milp.Branch_bound.branching;
      (** branching-variable rule for the bilevel MILP
          ({!Milp.Branch_bound.options.branching}); default
          {!Milp.Branch_bound.Reliability}. *)
  heuristics : bool;  (** Ignored. *)
  rins_freq : int;
      (** Ignored. [heuristics] and [rins_freq] configured primal
          heuristics branch-and-bound no longer has
          ({!Milp.Branch_bound.options.rins_freq}); they stay only while
          the repository benchmark reads them. *)
}

val default_options : options

(** [with_timeout seconds] — default options under a solver time budget. *)
val with_timeout : float -> options

type report = {
  status : Milp.Solver.status;
  degradation : float;  (** absolute, in traffic units (or MLU delta) *)
  normalized : float;  (** degradation / average LAG capacity *)
  bound : float;  (** proven upper bound on the degradation *)
  scenario : Failure.Scenario.t;
  scenario_prob : float;
  num_failed_links : int;
  worst_demand : Traffic.Demand.t;
  healthy_performance : float;
  failed_performance : float;
  per_pair : ((int * int) * float * float) list;
      (** per (src, dst): flow carried by the healthy network and by the
          failed network at the worst-case demand — the §9 "isolate and
          explain" breakdown. Empty when no incumbent exists. *)
  certificate : Milp.Certify.t option;
      (** the solution-audit verdict and residuals ({!Milp.Certify});
          every answer with a point is certified, so this is [None]
          only when the outcome carries no point *)
  elapsed : float;
  nodes : int;
}

(** The screening candidates of one analysis, each replayed once: the
    empty scenario, each whole-LAG failure and the greedy most-probable
    scenario (the {e seeds}), plus any [pooled] scenarios none of them
    equals. Each is re-checked against [spec] on [topo]'s current
    probabilities (threshold, [max_failures], connectivity) before it
    is replayed at the screening demand (the envelope corner matching
    [spec.goal]) on the engine [?screen] (as for {!analyze}) or one
    prepared here. *)
type candidates

val screen_candidates :
  ?screen:Te.Simulate.engine ->
  ?pooled:Failure.Scenario.t list ->
  spec:Bilevel.spec ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  Traffic.Envelope.t ->
  candidates

(** The candidate with the largest replayed degradation, pooled ones
    included, and that degradation: an admissible point of the bi-level
    problem at the screening demand, so a lower bound on its optimum
    there. [None] under [Min_failed_performance] (candidates are ranked
    by failed performance there, not degradation) or when no candidate
    routes. *)
val best_candidate : candidates -> (Failure.Scenario.t * float) option

(** [analyze ~options topo paths envelope] solves the bi-level problem.
    Reports with [status = Feasible] carry a valid incumbent plus bound
    (timeout behaviour, §6); [Infeasible] means no scenario satisfies the
    operator's constraints (e.g. threshold too high).

    [?screen] lends the candidate-screening sweep a prepared scenario
    engine for these exact (spec, topo, paths, screening-demand) inputs
    — {!screening_engine} builds one — skipping the per-call prepare; a
    long-lived caller keeps one engine across many analyses.

    [?candidates] lends the screening pass itself: when they were
    replayed at this analysis's screening demand (from
    {!screen_candidates} on the same spec, topology and paths), the
    best seeds become the plunge hints with no candidate replayed
    again; the pooled ones never do. Otherwise they are ignored and the
    candidates are screened here. Results are bit-identical either way. *)
val analyze :
  ?screen:Te.Simulate.engine ->
  ?candidates:candidates ->
  ?options:options ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  Traffic.Envelope.t ->
  report

(** The batched scenario engine {!analyze}'s screening sweep uses,
    prepared once for reuse via [?screen]: the TE LP at the envelope
    corner matching [spec.goal]. [None] when the healthy network cannot
    route that demand. *)
val screening_engine :
  spec:Bilevel.spec ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  Traffic.Envelope.t ->
  Te.Simulate.engine option

val pp_report : Format.formatter -> report -> unit

(** Operator-facing incident explanation: the failed LAGs, the pairs that
    lose traffic (healthy vs failed flow), and the demand that realizes
    it. *)
val pp_explanation : Wan.Topology.t -> Format.formatter -> report -> unit
