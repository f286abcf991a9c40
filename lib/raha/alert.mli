(** Raha's online alerting pipeline (§1, §3).

    Operationally Raha runs after every failure/topology change:
    0. a {e witness} check, before any MILP: the analysis's screening
       candidates (plus any scenarios the caller pooled from earlier
       proved answers) replayed at the observed peak demand; and a
       {e bound} check beside it, the total demand (below);
    1. a {e fast} check (budgeted ~10 minutes in production) with the
       demand fixed to the observed per-pair peak;
    2. a {e deep} check (budgeted ~1 hour) over the whole demand
       envelope.

    Each stage states the interval it proves on the worst-case
    degradation ({!evidence}), and one rule over those intervals
    ({!decide}) decides every crossing. Both solving stages share one
    {!Analysis.options}; the fast stage gets a quarter of its
    wall-clock budget. {!witness}, {!bound} and {!fast} are the one
    rule for what those stages do, used by {!run} (the CLI and the
    examples) and by the service's push pipeline ({!Service.Core}).

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
    performance, not degradation, and {!witness} finds none.

    {b The bound.} A witness is a lower bound, so it can raise an alert
    but never clear one. When degradation is a difference of total
    flows ([Total_flow] or [Max_min], under [Max_degradation]) an upper
    bound is plain arithmetic: write H(d) for the healthy network's
    total flow at demand d and F(d, s) for the failed network's under
    scenario s. Every answer of either solving stage is some
    deg(d, s) = H(d) − F(d, s) with d at most the peak (fast) or the
    envelope's upper corner (deep), entrywise. Then
    - deg(d, s) ≤ H(d), because F(d, s) ≥ 0 (flows are nonnegative);
    - H(d) ≤ Σ d, because each pair's flow is at most its demand (the
      [Σ f ≤ d] rows of the TE LP; max-min's bins partition [0, d]);
    - Σ d ≤ Σ hi, with hi the entrywise maximum of the peak and the
      envelope's upper corner.
    So the total demand at hi, over the average LAG capacity, bounds the
    normalized degradation of every witness, fast and deep answer, for
    point and variable envelopes alike, and costs no LP: the upper end
    of the bound stage's {!evidence}. (A solver answer may overshoot a
    proved bound by its rounding; the service counts those as [bbad].)

    The bound is tight only on a drained network: it settles (decides
    [Within]) a tolerance only when the whole network's demand is at most
    tolerance × the average LAG capacity (a tenth of one average LAG at
    the default 0.1). That is the clear after demand is drained away
    (maintenance, a traffic shift); on a loaded network it never
    settles, and a clear still waits for the deep stage.

    There is no bound under [Mlu] or [Min_failed_performance]: MLU
    degradation is a difference of utilizations, which no demand total
    bounds, and [Min_failed_performance] ranks failed performance, not
    degradation. *)

type stage = Witness_replay | Bound_total_demand | Fast_fixed_demand | Deep_variable_demand

(** The best replayed admissible scenario at the peak demand. *)
type witness = {
  scenario : Failure.Scenario.t;
  degradation : float;  (** replayed, absolute *)
  scenario_prob : float;
}

(** {b Evidence.} What one stage proves: the worst-case degradation
    lies in [[lo, hi]], absolute ([neg_infinity]/[infinity] on a side
    it does not prove); [per], the average LAG capacity, normalizes it. *)
type evidence = { lo : float; hi : float; per : float }

(** A stage's answer, and what it proves. *)
type answer =
  | Replayed of witness  (** at least its replayed degradation *)
  | Ceiling of float  (** the bound stage: at most this total demand *)
  | Fast of Analysis.report  (** at least its answer when solved ([Optimal]/[Feasible]) *)
  | Deep of Analysis.report  (** at least its answer when solved, at most it when [Optimal] *)

(** [evidence topo a] is what [a] proves, [per] from [topo]. A stage
    that raised, or has no bound ([Mlu], [Min_failed_performance]),
    has no answer and proves nothing. *)
val evidence : Wan.Topology.t -> answer -> evidence

type decision = Exceeded | Within | Open

(** {b The rule}, the one every caller decides crossings by ({!run},
    {!Augment}, the service's push pipeline): a tolerance (normalized
    degradation) is [Exceeded] when the normalized lower end is above
    it, [Within] when the normalized upper end is at or below it, and
    [Open] otherwise. Within one evaluation the first stage, in the
    order witness, bound, fast, deep, whose evidence decides a
    tolerance decides it, and later stages leave it alone; the deep
    stage runs only while some tolerance is still open after a fast
    stage that did not raise. So an unproven answer below the
    tolerance leaves it open: it never clears an alert. *)
val decide : evidence -> tolerance:float -> decision

type verdict = {
  decision : decision;  (** [Open]: no stage decided (an undecided alert) *)
  stage : stage option;  (** the stage that decided, if any *)
  witness : witness option;
  bound : float option;  (** the bound stage's total demand *)
  fast : Analysis.report option;
      (** [None] when the bound decided; run even after a witness alert,
          to tell how far beyond the tolerance the peak degrades *)
  deep : Analysis.report option;  (** [None] when an earlier stage decided *)
}

(** [bound ~options ~peak envelope] is the bound stage: the total
    demand at the entrywise maximum of [peak] and the envelope's upper
    corner, absolute; no answer's degradation exceeds it. [None] unless
    [options.spec] is [Total_flow] or [Max_min] under
    [Max_degradation]. *)
val bound :
  options:Analysis.options -> peak:Traffic.Demand.t -> Traffic.Envelope.t -> float option

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
    pipeline under {!decide}: {!witness} and {!bound}; then, unless the
    bound decided [tolerance] (no alert, and nothing solved), {!fast},
    and, unless an earlier stage decided, the deep stage under
    [options] (default {!Analysis.default_options}). Both
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
