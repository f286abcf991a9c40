(** The always-on degradation service, minus the socket.

    One {!t} owns the streaming {!State}, the persistent screening
    engine ({!Te.Simulate.prepare}, rebuilt only on structural change)
    and the cached worst-case answer. A worst-case solve is a plain
    {!Raha.Analysis.analyze} of the live state with the configured
    options, lent the screening engine, so a warm re-solve solves
    exactly the model a cold one of the same state does.
    {!handle} maps every protocol request to a response
    deterministically: replaying the same request sequence yields
    bit-identical responses (after {!strip_volatile}) whatever the
    domain count: every solve, {!Raha.Analysis.analyze} and a "now"
    query's warm overlay alike, runs on the calling domain.

    Query answers carry, besides the result itself:
    - ["cert"]: ["ok"] when the independent audits ({!Milp.Certify} for
      the MILP, the audit inside {!Milp.Batch.solve} for warm
      overlays) all passed
      inside this query's counter scope, ["fail"] otherwise;
    - freshness: ["events_applied"] (ingested events folded into the
      answer), ["staleness"] (events since the answer was computed — 0
      unless the invalidation policy ruled the cache still valid);
    - provenance: ["cached"], ["warm"] or ["cold"] ({!Policy});
    - ["counters"]: per-query {!Milp.Lp_stats} scope deltas. *)

type config = {
  paths : Netpath.Path_set.t;
  envelope : Traffic.Envelope.t;
      (** the {e configured} demand envelope; {!Event.Demand} events
          re-forecast it per pair from then on ({!State.envelope}) *)
  options : Raha.Analysis.options;
      (** per-solve options: [spec] and budgets. [domains] is not read:
          every solve runs {!Raha.Analysis.analyze} on the calling
          domain. *)
  drift_tol : float;
      (** max per-link probability-estimate drift a cached answer
          survives ({!Policy.decide}) *)
  alert_tolerance : float;
      (** daemon-wide push-alert threshold in normalized degradation
          units; subscribers may override it per connection *)
}

type t

(** [create config topo] — [topo] is the {e configured} topology
    (structure + provisioned capacities + configured probabilities);
    nothing is solved until the first query. *)
val create : config -> Wan.Topology.t -> t

(** Handle one request; total (protocol errors become
    [{"ok":false,"error":...}] responses, never exceptions). *)
val handle : t -> Event.request -> Json.t

(** Drop the keys that legitimately differ between runs — ["elapsed"]
    (wall clock) and ["counters"] (the work a query did depends on what
    the daemon had already built, e.g. after a restart) — for the
    replay determinism comparisons. Everything else must be bit-identical. *)
val strip_volatile : Json.t -> Json.t

(** Served-query tallies: (cached, warm, cold). *)
val tally : t -> int * int * int

(** The witness pool: the scenarios of the last proved ([Optimal])
    worst-case answers, the fast alert stage's included, newest first,
    distinct, at most 4 (a fixed cap). {!evaluate_alert}'s witness
    stage replays each one the spec still admits on the current
    estimates. *)
val witness_pool : t -> Failure.Scenario.t list

(** The push-notification state (subscribers, queues, crossing logic).
    {!Server} registers subscribe verbs here and drains the queues onto
    the sockets. *)
val alerting : t -> Alerting.t

(** Run {!Raha.Alert}'s pipeline over the current state and every
    subscriber ({!Alerting.evaluate}), at the envelope's upper corner
    (the observed peak): the witness stage on the live screening engine,
    its pool the {!witness_pool}, and the bound stage, both queued and
    [flush]ed before any branch-and-bound solve starts; then the fast
    stage, whose worst case is served like a worst query (on a point
    envelope it is the worst query itself, on a quarter of the time
    budget), and the deep stage, the worst query over the live
    envelope. Both take their plunge hints from the witness stage's
    candidates, share the query invalidation policy and cache, and
    neither is billed to the served tallies ({!tally}). No-op with no
    subscribers. [flush] is invoked after each stage's notifications
    are queued. Called by {!Server} after each accepted {e structural}
    event. *)
val evaluate_alert : ?flush:(unit -> unit) -> t -> unit

(** Attach a journal: from now on every event {!handle} accepts is
    appended ({!Journal.append}) before it is acknowledged. *)
val attach_journal : t -> Journal.t -> unit

(** [replay t events] folds recovered journal events through the normal
    ingest path (no journaling, no notifications); returns
    [(accepted, rejected)] — rejections are logged and skipped. *)
val replay : t -> Event.event list -> int * int
