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
    [Random.State.make [| seed; block |]]; the block layout governs
    only the draw. The scenarios are then solved through the batched
    engine by {!Simulate.degradations_prepared}: one shared prepared
    structure, and one warm dual solve from the healthy basis per
    distinct overlay. The returned arrays are bit-identical for a
    given [seed]. *)
val sample_degradations :
  ?objective:Formulation.objective ->
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
