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
    quarter of its wall-clock budget. *)

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

val stage_name : stage -> string

(** The fast stage alone: {!Analysis.analyze} at
    {!Traffic.Envelope.fixed} [peak] under [options] with a quarter of
    [options.time_limit]. The service's push pipeline ({!Service.Core})
    runs it after every structural event. *)
val fast_check :
  options:Analysis.options ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  peak:Traffic.Demand.t ->
  Analysis.report

(** [run ~options ~tolerance topo paths ~peak envelope] executes the
    pipeline: {!fast_check}, then, unless it alerted,
    {!Analysis.analyze} under [options] (default
    {!Analysis.default_options}) on [envelope]. [tolerance] is in
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
