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
      (** OCaml domains used for the scenario-evaluation sweeps (seed
          candidate scoring here, enumeration in {!Baselines}) and for
          the MILP core itself: one pool per {!analyze} is shared by the
          screening sweep and the branch-and-bound subtree rounds
          ({!Milp.Branch_bound.options.pool}). [1] (the default) is the
          exact sequential path; results are identical for any value. *)
  dense_simplex : bool;
      (** solve LP relaxations with the legacy dense tableau instead of
          the revised simplex (no sparse factorization, no dual-simplex
          warm starts; {!Milp.Branch_bound.options.engine}); default
          [false]; the [revised] bench arm turns it on. *)
  cuts : Milp.Cuts.options;
      (** cutting planes for the branch-and-bound solve
          ({!Milp.Cuts}: Gomory mixed-integer, knapsack cover and clique
          cuts over a managed pool). Default {!Milp.Cuts.default};
          [Milp.Cuts.disabled] (the [cuts] bench arm) restores the
          cut-free search exactly. *)
  sx_iters : int option;
      (** simplex pivot budget per LP relaxation
          ({!Milp.Branch_bound.options.sx_iters}); default [None] = unlimited.
          Exhaustion degrades the status honestly ([Optimal] →
          [Feasible], no incumbent → [Unknown]) — the per-query
          admission budget of the serving layer. *)
  bb_width : int;
      (** frontier width at which branch-and-bound switches to parallel
          subtree rounds ({!Milp.Branch_bound.options.par_width}); default 32.
          Results are bit-identical for any value — this only moves the
          sequential/parallel crossover. *)
  bb_grain : int;
      (** per-subtree node budget within one parallel round
          ({!Milp.Branch_bound.options.par_grain}); default 64. *)
  branching : Milp.Branch_bound.branching;
      (** branching-variable rule for the bilevel MILP
          ({!Milp.Branch_bound.options.branching}); default
          {!Milp.Branch_bound.Reliability}. *)
  heuristics : bool;
      (** enable the feasibility-pump and RINS primal heuristics
          ({!Milp.Branch_bound.options.heuristics}); default [true]. *)
  rins_freq : int;
      (** RINS cadence in branch-and-bound nodes; [<= 0] disables
          ({!Milp.Branch_bound.options.rins_freq}); default 200. *)
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

(** [analyze ~options topo paths envelope] solves the bi-level problem.
    Reports with [status = Feasible] carry a valid incumbent plus bound
    (timeout behaviour, §6); [Infeasible] means no scenario satisfies the
    operator's constraints (e.g. threshold too high).

    [?screen] lends the candidate-screening sweep a prepared scenario
    engine for these exact (spec, topo, paths, screening-demand) inputs
    — {!screening_engine} builds one — skipping the per-call prepare; a
    long-lived caller keeps one engine across many analyses.

    [?pool] lends an existing domain pool to the screening sweep and
    the branch-and-bound rounds; without it one pool is created per
    call when [options.domains > 1] (never from inside a pool task —
    nested calls run their exact sequential paths). Results are
    bit-identical with or without a pool, at any width. *)
val analyze :
  ?screen:Te.Simulate.engine ->
  ?pool:Parallel.Pool.t ->
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
