(** The baselines Raha is evaluated against (§8.1 "Benchmark", Fig. 3).

    - {!k_failures}: tools that bound the number of simultaneous failures
      (FFC-style, k typically <= 2) — Raha's own engine with a
      [max_failures] cap and no probability constraint;
    - {!worst_failures_at_demand}: tools that minimize the {e failed}
      network's performance at a fixed demand (QARC / Robust style),
      ignoring the design point. The report's [degradation] field is the
      implied degradation: healthy performance at the same demand minus
      the failed performance — the quantity Fig. 3 plots. *)

(** Result of {!enumerate_failures}: the worst simulated degradation
    over every scenario with at most [k] failed links. *)
type enumeration = {
  worst : float;
  worst_scenario : Failure.Scenario.t;
  scenarios_evaluated : int;
  elapsed : float;
}

(** [enumerate_failures ~k topo paths demand] is the brute-force variant
    of the "up to k failures" baseline: enumerate
    {!Failure.Enumerate.up_to_k} and route every scenario with
    {!Te.Simulate} at the fixed [demand]. Ties break toward the first
    scenario in enumeration order.

    Scenarios go through the batched engine
    ({!Te.Simulate.degradations_prepared}): one prepare, one healthy
    solve, and one rhs overlay warm-started from the healthy basis per
    distinct overlay; scenarios that change the same rows alike (e.g.
    failures of links no path crosses) share a solve.
    @raise Invalid_argument when the scenario count explodes (see
    {!Failure.Enumerate.up_to_k}). *)
val enumerate_failures :
  ?objective:Te.Formulation.objective ->
  k:int ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  Traffic.Demand.t ->
  enumeration

(** [k_failures ~options ~k topo paths envelope]. *)
val k_failures :
  ?options:Analysis.options ->
  k:int ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  Traffic.Envelope.t ->
  Analysis.report

(** [worst_failures_at_demand ~options topo paths demand] fixes [demand],
    finds failures minimizing the failed network's performance
    (optionally within [threshold]/[max_failures] from [options.spec]),
    and rewrites [degradation]/[normalized] as the implied degradation. *)
val worst_failures_at_demand :
  ?options:Analysis.options ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  Traffic.Demand.t ->
  Analysis.report
