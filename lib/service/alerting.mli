(** Push-notification state: subscribers, crossing logic, bounded
    per-subscriber outgoing queues.

    This module is deliberately independent of the solver types: a stage
    result is just response fields and the {!Raha.Alert.evidence} the
    stage proves, so the crossing/backpressure logic is unit-testable
    with fabricated results. {!Core} adapts {!Raha.Alert}'s stages into
    {!stage_result} values and calls {!evaluate} after every
    accepted structural event; {!Server} owns the subscriber ids (its
    connection ids) and drains the queues onto the sockets without ever
    blocking the event loop.

    Crossing semantics, per subscriber (each may override the daemon
    tolerance): {!Raha.Alert.decide}'s rule over the stages witness,
    bound, fast and deep. The stage that decides a subscriber sends an
    {e alert} when that turns it from quiet to exceeded and a {e clear}
    when it turns it from alerting to within; an undecided subscriber
    keeps its state, and no notification is repeated. Pushes go out in
    stage order, each stage's flushed before the next stage's work
    starts. (Unlike {!Raha.Alert.run}, the daemon still solves the fast
    stage for an evaluation the bound settled: it keeps the query cache
    and witness pool warm.) A [None] stage (it raised, or has no bound
    or no witness) decides no one.

    Backpressure: each subscriber has a bounded queue of outgoing lines
    (newline-terminated). Enqueueing onto a full queue drops the {e
    oldest} queued line and bumps the global [dropped] counter; the line
    currently being written ({!next_chunk} progress) is never dropped
    mid-write. *)

type t

(** One stage's push-notification fields, and what the stage proves. *)
type stage_result = { fields : (string * Json.t) list; evidence : Raha.Alert.evidence }

type stats = {
  evaluations : int;  (** {!evaluate} calls with >= 1 subscriber *)
  alerts : int;  (** alert notifications emitted (all subscribers) *)
  witness : int;  (** of [alerts], those the witness stage emitted *)
  wbad : int;
      (** evaluations whose witness degradation exceeds the fast stage's
          solved one by more than 1e-6 relative (floor 1), absolute: zero
          unless the fast stage stopped within its gap or budget below a
          replayed admissible scenario ({!Raha.Alert}) *)
  clears : int;
  bound : int;  (** of [clears], those the bound emitted *)
  bbad : int;
      (** evaluations whose solved fast or deep degradation exceeds the
          bound by more than 1e-6 relative (floor 1), absolute: zero
          unless a solve's rounding overshoots the proved bound *)
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
    once, after the witness and bound stages' emissions; [deep] at most
    once, and only if some subscriber is still undecided after a fast
    stage that is not [None]. [flush] is called after each stage that
    emitted something, so the caller can push its lines onto the wire
    before the next stage's solve runs. *)
val evaluate :
  t ->
  witness:stage_result option ->
  bound:stage_result option ->
  fast:(unit -> stage_result option) ->
  deep:(unit -> stage_result option) ->
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
