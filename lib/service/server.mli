(** Unix-domain-socket front end: line-delimited JSON over a stream
    socket, one request per line, one response line per request.

    The accept loop multiplexes any number of client connections with
    [select]. Requests that arrived in the same readiness round are
    answered one at a time, in arrival order, on the loop's own domain:
    a "now" query is a microsecond overlay solve, so fanning a run of
    them out over domains would cost more than it saves.

    Framing: a partial line survives any split across [select] wakeups
    (the tail stays buffered until its newline arrives); a line longer
    than 1 MiB is rejected with an in-band [{"ok":false,...}] error —
    complete oversized lines (up to one 64 KiB read chunk past the cap)
    cost one error response, a partial line that outgrows the cap by
    more than a read chunk additionally costs the connection, since no
    line boundary is left to resync on.

    Push notifications: a [{"op":"subscribe"}] request registers the
    connection with the core's {!Alerting} state (optionally overriding
    the alert tolerance) and switches the socket to nonblocking — every
    later write to it flows through a bounded per-subscriber queue,
    drained opportunistically (and via the [select] write set) so a slow
    reader costs dropped notifications, never a stalled event loop.
    After each accepted {e structural} event the loop runs
    {!Core.evaluate_alert}; fast-stage notifications are flushed onto
    the wire before the deep solve starts.

    A ["shutdown"] request is acknowledged, then the loop closes every
    connection, unlinks the socket and returns. *)

(** The conventional socket path, shared by [raha serve] and
    [raha query]. *)
val default_socket : string

(** [run ~socket core] binds [socket] (unlinking any stale file first)
    and serves until a shutdown request. Blocking. *)
val run : socket:string -> Core.t -> unit

(** [request ~socket line] — client side: connect, send [line], return
    the response line. Retries the connect (with a short sleep, up to
    [retries ~ 100] times) while the server is still starting, so a CI
    smoke test can launch daemon and client together. The connect-failure
    message names the socket path it tried. *)
val request : socket:string -> ?retries:int -> string -> (string, string) result
