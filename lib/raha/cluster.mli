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
  total_elapsed : float;
  wave_budgets : float list;
      (** per-solve time budget assigned to each wave (source clusters
          in order, then the final solve) — exposes the deterministic
          redistribution of unused budget for tests and reports *)
}

(** Per-solve budget for the next wave: [remaining] seconds spread
    evenly over [solves_left] upcoming solves ([infinity] passes
    through). {!analyze} re-evaluates this at every wave boundary, so
    budget unused by fast early blocks flows to the remaining ones in
    wave order (exposed for unit tests). *)
val wave_budget : remaining:float -> solves_left:int -> float

(** [analyze ~options ~clusters topo paths envelope] runs Algorithm 1.
    [options.time_limit] is split across solver invocations: each wave's
    solves get an even share of the budget still unspent when the wave
    starts ({!wave_budget}), so hard late blocks inherit what fast early
    blocks did not use. [clusters = 1] degenerates to a single
    free-demand solve followed by a fixed-demand solve.

    The (source, destination) blocks of one source cluster are
    independent — they free disjoint demand sets and read the pre-wave
    matrix — and solve concurrently on one pool of [options.domains]
    domains per call (none at one domain); their demands are adopted in
    destination order, so the assembled matrix does not depend on the
    execution schedule. The final fixed-demand solve runs
    the parallel branch-and-bound on the same pool. *)
val analyze :
  ?options:Analysis.options ->
  clusters:int ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  Traffic.Envelope.t ->
  result
