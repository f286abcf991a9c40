(** Raha's online alerting pipeline (§1, §3).

    Operationally Raha runs after every failure/topology change:
    1. a {e fast} check (budgeted ~10 minutes in production) with the
       demand fixed to the observed per-pair peak — alerts immediately if
       a probable failure scenario degrades the network beyond the
       operator's tolerance;
    2. otherwise a {e deep} check (budgeted ~1 hour) over the whole
       demand envelope, which alerts if {e any} admissible demand can be
       degraded.

    Both stages share one {!Analysis.options}; the fast stage gets a
    quarter of its wall-clock budget ({!fast_options}).

    On a point envelope ([lo = hi], the CLI's default [--slack 0]) the
    two stages pose the same problem, so a proved fast answer is the
    deep answer too: {!run} returns it as [deep] without a second
    solve, and the service's pipeline ({!Service.Core}) serves the fast
    stage through its worst-query cache, which the deep stage and the
    next worst query then re-read. *)

type stage = Fast_fixed_demand | Deep_variable_demand

type verdict = {
  alert : bool;
  stage : stage option;  (** which stage raised the alert, if any *)
  fast : Analysis.report;
  deep : Analysis.report option;  (** [None] when the fast stage alerted *)
}

(** The pipeline's threshold test: normalized degradation beyond
    [tolerance], on a solved ([Optimal]/[Feasible]) report only — an
    [Unknown]/[Infeasible] answer never raises an alert by itself.
    Exposed for the service's push pipeline ({!Service.Core}), which
    applies it per-subscriber. *)
val exceeds : Analysis.report -> tolerance:float -> bool

(** The fast stage's options: [options] with a quarter of its
    [time_limit]. *)
val fast_options : Analysis.options -> Analysis.options

(** The fast stage alone: {!Analysis.analyze} at
    {!Traffic.Envelope.fixed} [peak] under {!fast_options}. The
    service's push pipeline ({!Service.Core}) runs it after every
    structural event on a variable envelope. *)
val fast_check :
  options:Analysis.options ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  peak:Traffic.Demand.t ->
  Analysis.report

(** [run ~options ~tolerance topo paths ~peak envelope] executes the
    pipeline: {!fast_check}, then, unless it alerted,
    {!Analysis.analyze} under [options] (default
    {!Analysis.default_options}) on [envelope]. On a point envelope at
    the peak ({!Traffic.Envelope.is_fixed} [envelope], its upper corner
    holding [peak]'s entries) the fast stage analyzes [envelope] itself
    under {!fast_options}, as the service's pipeline does, and an
    [Optimal] fast report is returned as [deep] too: the deep solve
    would repeat the same deterministic search. [tolerance] is in
    normalized degradation units (fractions of the average LAG
    capacity, §8.1). *)
val run :
  ?options:Analysis.options ->
  ?tolerance:float ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  peak:Traffic.Demand.t ->
  Traffic.Envelope.t ->
  verdict
