(** Push-notification state: subscribers, crossing logic, bounded
    per-subscriber outgoing queues.

    This module is deliberately independent of the solver types: a stage
    result is just response fields, a degradation and an [exceeds]
    predicate, so the crossing/backpressure logic is unit-testable with
    fabricated results. {!Core} adapts {!Raha.Alert}'s three stages
    into {!stage_result} values and calls {!evaluate} after every
    accepted structural event; {!Server} owns the subscriber ids (its
    connection ids) and drains the queues onto the sockets without ever
    blocking the event loop.

    Crossing semantics, per subscriber (each may override the daemon
    tolerance): an {e alert} notification fires on the quiet→exceeding
    transition — from the witness stage (a replayed scenario, before
    any solve) when it exceeds the subscriber's tolerance, else from the
    fast stage, else from the deep stage — and a {e clear} fires on the
    alerting→quiet transition, which requires {e every} stage below
    tolerance. While a subscriber stays on one side no notification is
    repeated, so a subscriber alerted by the witness gets no second
    alert from the fast stage. Pushes go out in stage order, each
    stage's flushed before the next stage's work starts. The fast stage
    is computed after the witness pushes are flushed; the deep stage
    lazily, at most once per {!evaluate}, and only when some
    subscriber's witness and fast stages both came in below tolerance
    (mirroring {!Raha.Alert.run}, which skips the deep solve when an
    earlier stage already alerted). A stage with [usable = false]
    (solver failure) freezes every affected subscriber's state — no
    spurious clears.

    Backpressure: each subscriber has a bounded queue of outgoing lines
    (newline-terminated). Enqueueing onto a full queue drops the {e
    oldest} queued line and bumps the global [dropped] counter; the line
    currently being written ({!next_chunk} progress) is never dropped
    mid-write. *)

type t

(** Fields of one pipeline stage plus its threshold predicate.
    [usable = false] marks a failed solve: no transition may rest on
    it. *)
type stage_result = {
  fields : (string * Json.t) list;
  exceeds : float -> bool;  (** applied to each subscriber's tolerance *)
  degradation : float;
      (** the stage's degradation ([nan] when it has none), for the
          witness-vs-fast check ([stats.wbad]) *)
  usable : bool;
}

type stats = {
  evaluations : int;  (** {!evaluate} calls with >= 1 subscriber *)
  alerts : int;  (** alert notifications emitted (all subscribers) *)
  witness : int;  (** of [alerts], those the witness stage emitted *)
  wbad : int;
      (** evaluations whose witness degradation exceeds the fast stage's
          by more than 1e-6 relative (floor 1): zero unless the fast
          stage stopped within its gap or budget below a replayed
          admissible scenario ({!Raha.Alert}) *)
  clears : int;
  deep_runs : int;  (** times the lazy deep stage was actually solved *)
  dropped : int;  (** lines dropped to backpressure, all subscribers *)
}

(** [create ~tolerance ()] — [tolerance] is the daemon-wide default
    threshold; [queue_cap] bounds each subscriber's outgoing queue
    (default 64 lines). *)
val create : ?queue_cap:int -> tolerance:float -> unit -> t

(** Register subscriber [id] (idempotent: re-subscribing replaces the
    tolerance override and resets the crossing state, keeping queued
    lines). *)
val subscribe : t -> id:int -> tolerance:float option -> unit

(** Forget subscriber [id] and its queue (no-op when unknown). *)
val unsubscribe : t -> id:int -> unit

val subscribed : t -> id:int -> bool
val subscribers : t -> int

(** Run the crossing logic over every subscriber. [fast] is invoked
    once, after the witness stage's emissions; [deep] at most once, and
    only if some subscriber needs it. [flush] is called after each
    stage that emitted something, so the caller can push its lines onto
    the wire before the next stage's solve runs. *)
val evaluate :
  t ->
  witness:stage_result ->
  fast:(unit -> stage_result) ->
  deep:(unit -> stage_result) ->
  flush:(unit -> unit) ->
  unit

(** Queue an arbitrary response line for subscriber [id] (used by
    {!Server} once a connection's writes are routed through the queue).
    A missing trailing newline is added. No-op for unknown ids. *)
val enqueue : t -> id:int -> string -> unit

(** Subscribers with bytes waiting to go out. *)
val pending_ids : t -> int list

(** [next_chunk t ~id] — the line currently in flight and the offset of
    its first unwritten byte, or [None] when the queue is empty.
    Dequeues the next line when nothing is in flight. *)
val next_chunk : t -> id:int -> (string * int) option

(** [advance t ~id n]: [n] more bytes of the in-flight line were
    written. *)
val advance : t -> id:int -> int -> unit

val stats : t -> stats
