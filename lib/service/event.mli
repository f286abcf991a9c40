(** Telemetry events and queries of the degradation service.

    The ingest side of the daemon consumes {!event} values — the
    line-delimited JSON twin of {!Failure.Trace}-style repair logs plus
    capacity changes — and the query side consumes {!query} values. One
    JSON object per line; see README "raha serve" for the protocol. *)

type event =
  | Link_down of { lag : int; link : int; at : float }
      (** physical link [(lag, link)] went down at time [at] *)
  | Link_up of { lag : int; link : int; at : float }
      (** the link was repaired at time [at] *)
  | Capacity of { lag : int; link : int; capacity : float; at : float }
      (** the link's capacity was re-provisioned — a {e structural}
          change: every cached model artifact is invalidated *)
  | Demand of { src : int; dst : int; lo : float; hi : float; at : float }
      (** the demand envelope for pair [(src, dst)] was re-forecast to
          [\[lo, hi\]] — structural, like {!Capacity}: the worst-case
          model is built over the envelope, so every cached artifact
          (engine, cached answer) is invalidated. Wire form is
          [{"op":"demand",...}] rather than an ["ev"] kind *)

type query =
  | Worst of { budget : int option; max_nodes : int option }
      (** the worst probable (failure, demand) degradation under the
          current probability estimates; [budget] caps simplex pivots
          per LP, [max_nodes] caps branch-and-bound nodes *)
  | Now of { down : (int * int) list option }
      (** degradation at the peak screening demand under an overlay
          scenario: the given [(lag, link)] set, or (default) the
          currently-down links. A pure warm-overlay read on the
          persistent engine — many of these run concurrently on the
          {!Parallel.Pool} ({!Core.now_many}) *)
  | Status  (** freshness and ingest statistics; never solves *)

type request =
  | Event of event
  | Query of query
  | Subscribe of { tolerance : float option }
      (** register the connection for push alert/clear notifications;
          [tolerance] overrides the daemon-wide alert threshold for this
          subscriber. Handled by {!Server}, not {!Core.handle} *)
  | Shutdown

(** Parse one protocol line. [Error] carries a human-readable reason
    (echoed back to the client in an ["error"] response). *)
val request_of_json : Json.t -> (request, string) result

val request_of_line : string -> (request, string) result

(** Encodings, used by the client side and the tests. *)

val json_of_event : event -> Json.t
val json_of_request : request -> Json.t
