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
    quarter of its wall-clock budget. {!fast} is the one rule for what
    the fast stage solves, used by {!run} (the CLI and the examples) and
    by the service's push pipeline ({!Service.Core}). *)

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

(** [fast ~options ~worst topo paths ~peak envelope] is the fast stage,
    on [options] with a quarter of its [time_limit]. On a point envelope
    at the peak ({!Traffic.Envelope.is_fixed} [envelope], its upper
    corner holding [peak]'s entries, as with the CLI's default
    [--slack 0]) the fast stage poses the envelope's own worst-case
    problem, so it is [worst] applied to those options: the caller
    decides how the worst case is solved and whether a later stage may
    re-read it. Otherwise it is {!Analysis.analyze} at
    {!Traffic.Envelope.fixed} [peak], and [worst] is not called. *)
val fast :
  options:Analysis.options ->
  worst:(Analysis.options -> Analysis.report) ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  peak:Traffic.Demand.t ->
  Traffic.Envelope.t ->
  Analysis.report

(** [run ~options ~tolerance topo paths ~peak envelope] executes the
    pipeline: {!fast}, then, unless it alerted, the deep stage under
    [options] (default {!Analysis.default_options}). Both stages read
    the envelope's worst case through one [worst] that runs
    {!Analysis.analyze} on [envelope] and re-reads a proved ([Optimal])
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
