(** Renewal-reward estimation of link failure probabilities (Appendix B).

    The renewal process splits time at repair instants; the reward of a
    cycle is the downtime inside it. By the renewal reward theorem the
    long-run fraction of time the link is down — its failure probability
    — equals [E(R) / E(X)]. *)

type event = { down_at : float; up_at : float }
(** One outage: the link went down at [down_at] and was repaired at
    [up_at]. *)

(** [estimate ~horizon events] estimates the probability that the link is
    down: total downtime / observation horizon. Events must be
    chronological and non-overlapping; downtime past the horizon is
    clipped.
    @raise Invalid_argument on malformed traces. *)
val estimate : horizon:float -> event list -> float

(** [clamp_estimate p] is [p] clamped to [[1e-6, 0.99]], the range an
    estimate may take as a link's failure probability: it keeps the
    log-probabilities of scenarios finite. *)
val clamp_estimate : float -> float

(** Incremental renewal-reward estimation for streaming telemetry.

    {!estimate} re-walks the whole event list per reading — O(events)
    per update, which a long-lived ingestion loop cannot afford. [Incr]
    folds one transition at a time into a running downtime sum (O(1) per
    event) and is {e bit-identical} to {!estimate} on every prefix: after
    folding the outages [es] with {!Incr.down} and {!Incr.up},
    [Incr.estimate ~horizon t = estimate ~horizon es] to the last float
    bit whenever [horizon] does not precede the folded events. Unlike
    the batch function it also carries an {e open} outage (link
    currently down, repair pending), clipped at the estimation horizon
    exactly as {!estimate} clips events straddling its horizon. *)
module Incr : sig
  type t

  val empty : t

  (** Closed outages folded so far. *)
  val count : t -> int

  (** True when an open outage is pending ([down] seen, no [up] yet). *)
  val is_down : t -> bool

  (** [down t ~at] opens an outage.
      @raise Invalid_argument if the link is already down or [at]
      precedes the last repair. *)
  val down : t -> at:float -> t

  (** [up t ~at] closes the open outage.
      @raise Invalid_argument if no outage is open or [at] is not after
      its start. *)
  val up : t -> at:float -> t

  (** Downtime fraction over [0, horizon], the open outage clipped at
      the horizon. Bit-identical to {!Renewal.estimate} on the folded
      events (plus the clipped open outage).
      @raise Invalid_argument when [horizon] is non-positive or precedes
      folded events. *)
  val estimate : horizon:float -> t -> float
end
