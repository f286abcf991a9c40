(** The always-on degradation service, minus the socket.

    One {!t} owns the streaming {!State}, the persistent screening
    engine ({!Te.Simulate.prepare}, rebuilt only on structural change)
    and the cached worst-case answer. Every worst-case solve separates
    its cover and clique cuts afresh ({!Milp.Cuts.separate_structural},
    skipped when [options.cuts] is {!Milp.Cuts.disabled}), so a warm
    re-solve solves exactly the model a cold one of the same state
    does. {!handle} maps every protocol request to a response
    deterministically: replaying the same request sequence yields
    bit-identical responses (after {!strip_volatile}) whatever the
    domain count — the seeding sweeps inside {!Raha.Analysis.analyze}
    are order-preserving and the rest is sequential.

    Query answers carry, besides the result itself:
    - ["cert"]: ["ok"] when the independent audits ({!Milp.Certify} for
      the MILP, {!Milp.Batch.check} for warm overlays) all passed
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
      (** per-solve options; [spec], [domains], budgets *)
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

(** [now_many t downs] answers a batch of "now" overlay queries
    concurrently on the {!Parallel.Pool} ([options.domains] wide):
    element [i] is the answer for overlay scenario [downs.(i)] ([None]
    = the live-down set). {!handle} answers a [Now] query as a
    one-item batch, which runs inline. Bit-identical to handling them
    one by one {e except} for the volatile fields: counters (and hence the cert
    verdict) are aggregated per batch, since work stealing cannot
    attribute worker counters per query — an overlay-audit failure
    anywhere taints the whole batch's cert, conservatively. *)
val now_many : t -> (int * int) list option array -> Json.t array

(** Drop the keys that legitimately differ between runs — ["elapsed"]
    (wall clock) and ["counters"] (work-stealing attributes worker
    counters nondeterministically when [domains > 1]) — for the replay
    determinism comparisons. Everything else must be bit-identical. *)
val strip_volatile : Json.t -> Json.t

(** Served-query tallies: (cached, warm, cold). *)
val tally : t -> int * int * int

(** The push-notification state (subscribers, queues, crossing logic).
    {!Server} registers subscribe verbs here and drains the queues onto
    the sockets. *)
val alerting : t -> Alerting.t

(** Run {!Raha.Alert}'s two-stage pipeline over the current state and
    every subscriber ({!Alerting.evaluate}): the fast stage solves the
    worst case at the envelope's peak (upper corner) under a quarter of
    the time budget; the deep stage is the worst query over the live
    envelope, sharing its invalidation policy and cache. No-op with no
    subscribers. [flush] is invoked after the fast-stage notifications
    are queued, before the deep solve starts. Called by {!Server} after
    each accepted {e structural} event. *)
val evaluate_alert : ?flush:(unit -> unit) -> t -> unit

(** Attach a journal: from now on every event {!handle} accepts is
    appended ({!Journal.append}) before it is acknowledged. *)
val attach_journal : t -> Journal.t -> unit

(** [replay t events] folds recovered journal events through the normal
    ingest path (no journaling, no notifications); returns
    [(accepted, rejected)] — rejections are logged and skipped. *)
val replay : t -> Event.event list -> int * int
