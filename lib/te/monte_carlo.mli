(** Monte Carlo dataplane simulation.

    The production workflow the paper starts from (§1, §4.2) simulates
    the WAN under sampled failure combinations at peak load — and the
    motivating incident is precisely a scenario such sampling missed.
    This module reproduces that workflow: sample failure scenarios from
    the per-link probabilities, route each with {!Simulate}, and report
    the degradation distribution. Benchmarks contrast its tail estimates
    with Raha's exact worst case. *)

type summary = {
  samples : int;
  mean : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max_seen : float;
  worst_scenario : Failure.Scenario.t;  (** scenario realizing [max_seen] *)
}

(** [sample_degradations ~seed ~samples topo paths demand] draws
    [samples] independent scenarios (each link fails independently with
    its configured probability) and returns the degradations in the
    order drawn. Scenarios whose routing is infeasible (MLU with a
    disconnected pair) count as the healthy network's full performance.

    Samples are drawn in fixed 64-sample blocks, each from an RNG seeded
    [Random.State.make [| seed; block |]], and routed on [pool] (inline
    on the caller without one). The block layout is independent of the
    parallelism, so the returned arrays are bit-identical for a given
    [seed] with or without a pool of any width.

    Scenarios are solved through the batched engine ({!Simulate.prepare}):
    one shared prepared structure, rhs overlays, warm dual solves from
    the healthy basis. Each block is one unit of pool work; every
    scenario warm-starts from the same healthy basis, never from a
    neighbour, so results are independent of [pool] and scheduling. *)
val sample_degradations :
  ?objective:Formulation.objective ->
  ?pool:Parallel.Pool.t ->
  seed:int ->
  samples:int ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  Traffic.Demand.t ->
  float array * Failure.Scenario.t array

(** Summarize a sample run; percentiles follow the nearest-rank rule
    (the ceil(q*n)-th smallest value).
    @raise Invalid_argument on empty input. *)
val summarize : float array -> Failure.Scenario.t array -> summary

(** [prob_degradation_above degradations x] is the empirical probability
    of a degradation strictly above [x]. *)
val prob_degradation_above : float array -> float -> float
