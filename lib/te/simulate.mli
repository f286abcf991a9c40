(** Direct routing of a concrete (demand, failure scenario) pair.

    Solves the TE LP with the scenario baked in as constants — no outer
    problem. This is (a) the independent oracle the test suite checks
    Raha's bi-level MILP against, and (b) the engine behind the
    enumeration baselines ("up to k failures") of §8. *)

type reaction =
  | Optimal_failover
      (** the network re-optimizes over all available paths (the paper's
          default model of §5) *)
  | Naive_failover
      (** each backup path may carry at most what its corresponding
          primary carried in the healthy network (§5.1) *)

type result = {
  performance : float;
      (** total flow (Total_flow / Max_min) or MLU (Mlu) *)
  flows : float array;  (** per spec column *)
  index : Formulation.index;
}

(** [availability topo pair scenario] marks which of a pair's paths may
    carry traffic under the scenario, per Eq. 5's fail-over discipline:
    path [j] (0-indexed, primaries first) is available iff
    [#failed higher-priority paths + n_primary - j - 1 >= 0]. *)
val availability :
  Wan.Topology.t -> Netpath.Path_set.pair -> Failure.Scenario.t -> bool array

(** [route ~objective topo paths demand scenario] routes [demand] on the
    failed network. Infeasible MLU instances (a pair fully disconnected)
    return [None].

    With [reaction = Naive_failover], [healthy] must be a previous result
    for the same paths on the healthy network. *)
val route :
  ?objective:Formulation.objective ->
  ?reaction:reaction ->
  ?healthy:result ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  Traffic.Demand.t ->
  Failure.Scenario.t ->
  result option

(** [healthy ~objective topo paths demand] routes on the design point
    (no failures; only primary paths are active). *)
val healthy :
  ?objective:Formulation.objective ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  Traffic.Demand.t ->
  result option

(** [degradation ~objective topo paths demand scenario] is the paper's
    headline metric: healthy performance minus failed performance for
    Total_flow (traffic the healthy network carries but the failed one
    drops), or failed MLU minus healthy MLU for Mlu. [None] when either
    LP is infeasible. *)
val degradation :
  ?objective:Formulation.objective ->
  ?reaction:reaction ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  Traffic.Demand.t ->
  Failure.Scenario.t ->
  float option

(** {1 Batched scenario engine}

    One symbolic factorization, thousands of warm-started scenario
    solves (DESIGN.md §12). [prepare] builds the TE LP of the healthy
    network once, without extension-capacity rows: Eq. 5's path caps
    are constants here, so each is an upper bound on its path's column.
    It runs one cold solve of that base; each scenario is then a delta
    of capacity-row right-hand sides and path-column upper bounds on
    it ([Milp.Batch]), solved by the dual simplex warm-started from the
    healthy optimal basis.

    Under Total_flow and Max_min the solved LP leaves out the capacity
    row of every LAG whose pairs' summed demand is at most its smallest
    link: each pair routes at most its demand, so no scenario makes
    that row bind while the LAG is up, and a fully-down LAG closes its
    paths through their column bounds. MLU keeps every row. Each
    overlay is patched, solved and audited in one pass
    ({!Milp.Batch.solve}): its answer is checked against the whole LP,
    dropped rows included. An engine is immutable after [prepare] and
    safe to share across domains. *)

type engine

(** [prepare ~objective topo paths demand] builds the shared structure
    and solves the healthy network (the warm-start seed), audited inside
    {!Milp.Batch.solve} like every overlay. The base is the healthy
    network: live LAG capacities, and path columns bounded above by
    [d_max] for the paths available with nothing failed and by 0 for the
    rest (the backups), so the healthy overlay patches nothing. [None] when
    even the healthy network cannot route the demand (same condition as
    {!healthy} returning [None]). Only [Optimal_failover] reactions are
    supported — naive fail-over changes the row structure per scenario. *)
val prepare :
  ?objective:Formulation.objective ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  Traffic.Demand.t ->
  engine option

(** [(solved, full)]: the rows of the LP the engine solves and of the
    whole LP its answers are audited against. *)
val engine_rows : engine -> int * int

(** The healthy-network routing computed by [prepare]. Its performance
    can differ from {!healthy}'s last bits: the engine's LP bounds every
    path column where {!route} writes extension rows for blocked paths,
    so the simplex may stop at a different optimal vertex. The optimal
    objective value is the same up to solver tolerance. *)
val engine_healthy : engine -> result

(** [route_prepared eng scenario] routes the engine's demand under
    [scenario]: one overlay solve, warm-started from the healthy basis
    and audited by that same {!Milp.Batch.solve} call. The overlay patches only what
    differs from the healthy network: the rhs of the capacity rows of
    LAGs with a failed link (none under MLU) and the upper bounds of
    the path columns that a fully-down LAG opens or blocks. *)
val route_prepared : engine -> Failure.Scenario.t -> result option

(** {!degradation} against the engine's healthy baseline: healthy minus
    failed performance (Total_flow / Max_min), failed minus healthy MLU
    (Mlu). [None] when the scenario LP is infeasible. *)
val degradation_prepared : engine -> Failure.Scenario.t -> float option

(** [degradations_prepared eng scenarios] is
    [Array.map (degradation_prepared eng) scenarios], bit for bit, but
    solves each distinct overlay once: scenarios whose failures give
    the same rhs and bounds (most often the healthy ones, when no
    failed link lies on a path) share one solve and its audit. *)
val degradations_prepared : engine -> Failure.Scenario.t array -> float option array
