(** Raha's online alerting pipeline (§1, §3).

    Operationally Raha runs after every failure/topology change:
    0. a {e witness} check, before any MILP: the analysis's screening
       candidates (plus any scenarios the caller pooled from earlier
       proved answers) replayed at the observed peak demand — alerts at
       once if an admissible scenario already degrades the network
       beyond the operator's tolerance;
    1. a {e fast} check (budgeted ~10 minutes in production) with the
       demand fixed to the observed per-pair peak — alerts immediately if
       a probable failure scenario degrades the network beyond the
       operator's tolerance;
    2. otherwise a {e deep} check (budgeted ~1 hour) over the whole
       demand envelope, which alerts if {e any} admissible demand can be
       degraded.

    Both solving stages share one {!Analysis.options}; the fast stage
    gets a quarter of its wall-clock budget. {!witness} and {!fast} are
    the one rule for what those stages do, used by {!run} (the CLI and
    the examples) and by the service's push pipeline ({!Service.Core}).

    {b Soundness of the witness.} A witness is an admissible input of
    the fast stage's own problem: a scenario that passes the spec's
    checks on the current probabilities, at the peak demand. The fast
    MILP maximizes over all such inputs, so its optimum is at least the
    witness's replayed degradation, and a witness alert is one the fast
    stage raises at optimality; the deep stage's optimum, over an
    envelope holding the peak, is larger still. The one case where a
    witness alert has no fast-stage match is a fast stage that stopped
    within its gap or budget below the witness; there the witness is
    the stronger evidence, and the alert stands. (Under [Max_min] the
    MILP ranks by the binned surrogate of Appendix A and both sides
    report total flow; the "witness ≤ fast" property test covers
    [Total_flow], [Max_min] and [Mlu] on small WANs.)

    The witness applies only to [Max_degradation]: under
    [Min_failed_performance] the candidates are ranked by failed
    performance, not degradation, and {!witness} finds none. *)

type stage = Witness_replay | Fast_fixed_demand | Deep_variable_demand

(** The best replayed admissible scenario at the peak demand. *)
type witness = {
  scenario : Failure.Scenario.t;
  degradation : float;  (** replayed, absolute *)
  normalized : float;  (** degradation / average LAG capacity *)
  scenario_prob : float;
}

type verdict = {
  alert : bool;
  stage : stage option;  (** the earliest stage that raised the alert, if any *)
  witness : witness option;
  fast : Analysis.report;  (** run even after a witness alert *)
  deep : Analysis.report option;  (** [None] when an earlier stage alerted *)
}

(** The pipeline's threshold test: normalized degradation beyond
    [tolerance], on a solved ([Optimal]/[Feasible]) report only — an
    [Unknown]/[Infeasible] answer never raises an alert by itself.
    Exposed for the service's push pipeline ({!Service.Core}), which
    applies it per-subscriber. *)
val exceeds : Analysis.report -> tolerance:float -> bool

(** [witness_exceeds w ~tolerance]: the witness's normalized
    degradation is beyond [tolerance]. *)
val witness_exceeds : witness -> tolerance:float -> bool

(** [witness ~options ?screen ?pooled topo paths ~peak] is the witness
    stage: {!Analysis.screen_candidates} at [Traffic.Envelope.fixed
    peak] under [options.spec] (on the engine [?screen], prepared at
    that demand, when given), and the best candidate
    ({!Analysis.best_candidate}). The candidates are returned too, for
    {!fast} and the deep stage: their analyses take their plunge hints
    from this one scoring pass. [(None, None)] under
    [Min_failed_performance], which replays nothing. *)
val witness :
  options:Analysis.options ->
  ?screen:Te.Simulate.engine ->
  ?pooled:Failure.Scenario.t list ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  peak:Traffic.Demand.t ->
  Analysis.candidates option * witness option

(** [fast ~options ~worst topo paths ~peak envelope] is the fast stage,
    on [options] with a quarter of its [time_limit]. On a point envelope
    at the peak ({!Traffic.Envelope.is_fixed} [envelope], its upper
    corner holding [peak]'s entries, as with the CLI's default
    [--slack 0]) the fast stage poses the envelope's own worst-case
    problem, so it is [worst] applied to those options: the caller
    decides how the worst case is solved and whether a later stage may
    re-read it. Otherwise it is {!Analysis.analyze} at
    {!Traffic.Envelope.fixed} [peak] (lent [?candidates]), and [worst]
    is not called. *)
val fast :
  options:Analysis.options ->
  ?candidates:Analysis.candidates ->
  worst:(Analysis.options -> Analysis.report) ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  peak:Traffic.Demand.t ->
  Traffic.Envelope.t ->
  Analysis.report

(** [run ~options ~tolerance topo paths ~peak envelope] executes the
    pipeline: {!witness}, {!fast}, then, unless either alerted, the deep
    stage under [options] (default {!Analysis.default_options}). Both
    solving stages take their plunge hints from the witness's
    candidates, and read the envelope's worst case through one [worst]
    that runs {!Analysis.analyze} on [envelope] and re-reads a proved ([Optimal])
    answer, as the service's cache does: the search is deterministic, so
    on a point envelope a proved fast answer is the deep answer, with no
    second solve. [tolerance] is in normalized degradation units
    (fractions of the average LAG capacity, §8.1). *)
val run :
  ?options:Analysis.options ->
  ?tolerance:float ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  peak:Traffic.Demand.t ->
  Traffic.Envelope.t ->
  verdict
