(** The clustering scheme of §6 (Algorithm 1).

    Solving jointly for demands and failures on a large topology is slow;
    Algorithm 1 approximates the worst-case demand matrix block by block:
    nodes are partitioned into clusters, and for every (source cluster,
    destination cluster) pair the demands of that block are freed while
    all other demands stay fixed at the values found so far (initially
    zero). Every block solve still sees the full topology, all paths and
    all failure scenarios. A final solve with the assembled fixed demand
    matrix produces the failure scenario.

    Clustering trades optimality for runtime (§8.5: ~69% faster at ~15%
    lower degradation in the paper's setup). *)

(** [partition topo ~clusters] assigns each node a cluster id in
    [0, clusters), by BFS growth from spread-out seeds (balanced,
    connectivity-aware). *)
val partition : Wan.Topology.t -> clusters:int -> int array

type result = {
  report : Analysis.report;  (** final full solve at the fixed demand *)
  demand : Traffic.Demand.t;  (** the assembled demand matrix *)
  block_solves : int;
      (** the planned solves, all of which run: one per block that
          holds pairs, plus the final solve *)
  wave_budgets : float list;
      (** per-solve time budget assigned to each wave (source clusters
          in order, then the final solve) — exposes the redistribution
          of unused time for tests and reports *)
}

(** Per-solve budget for the next wave: [remaining] seconds spread
    evenly over [solves_left] upcoming solves ([infinity] passes
    through). {!analyze} re-evaluates this at every wave boundary, so
    time unused by fast early blocks flows to the remaining ones in
    wave order (exposed for unit tests). *)
val wave_budget : remaining:float -> solves_left:int -> float

(** [analyze ~options ~clusters topo paths envelope] runs Algorithm 1
    within one wall-clock deadline, [options.time_limit] seconds after
    the call starts. Each wave's solves get an even share of the time
    left before the deadline when the wave starts ({!wave_budget}), and
    the final solve gets all that is left, so hard late blocks inherit
    what fast early blocks did not use, and concurrent blocks are
    charged their wall time, not their summed solve times. Everything
    a block solve does (build, screening, presolve, certify) counts.
    [clusters = 1] degenerates to a single free-demand solve followed
    by a fixed-demand solve.

    The (source, destination) blocks of one source cluster are
    independent — they free disjoint demand sets and read the pre-wave
    matrix — and solve concurrently, one {!Parallel.Pool.map} over
    [options.domains] domains per wave (inline at one domain); their
    demands are adopted in destination order, so the assembled matrix
    does not depend on the execution schedule. These waves are the only
    parallel path in the analysis: each block solve, and the final
    fixed-demand solve, runs its branch-and-bound on one domain. *)
val analyze :
  ?options:Analysis.options ->
  clusters:int ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  Traffic.Envelope.t ->
  result
