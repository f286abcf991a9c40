(** Durable event log: crash recovery for the always-on daemon.

    Every event the daemon {e accepts} is appended as one record before
    the acknowledgement goes back to the client, so a crashed daemon
    restarted with [raha serve --journal PATH] replays the log through
    the normal ingest path and recovers its renewal estimators, live
    topology and demand envelope {e bit-identically}: the journal stores
    the exact event values ({!Event.json_of_event} / parse round-trips
    losslessly — floats print [%.17g]), and replayed ingestion performs
    the same floating-point folds as live ingestion.

    On-disk format, per record:

    {v [u32 be length][u32 be crc32(payload)][payload bytes] v}

    where the payload is the event's JSON line. Writes go straight to
    the file descriptor (no userland buffering), so a SIGKILL loses at
    most the record being written; {e structural} events (capacity and
    demand-envelope changes, the expensive-to-lose ones) are followed by
    an [fsync], so they survive power loss too.

    Recovery is total: a truncated or corrupt tail record (short length
    header, short payload, CRC mismatch, unparseable JSON, absurd
    length) is detected, reported, and {e skipped} — never an exception.
    {!open_} truncates the file back to the last intact record so
    subsequent appends extend a clean log. *)

type t

(** What {!open_} found in an existing journal. *)
type recovery = {
  events : Event.event list;  (** intact records, in append order *)
  valid_bytes : int;  (** offset of the first damaged byte (= file size
                          when the log is clean) *)
  damage : string option;
      (** [Some reason] when a truncated/corrupt tail was discarded *)
}

(** [open_ path] opens (creating if missing) the journal for appending,
    first scanning any existing records: the returned {!recovery} holds
    every intact event for replay, and the file is truncated to
    [valid_bytes] so the damaged tail cannot shadow future appends.
    @raise Sys_error when the path cannot be opened. *)
val open_ : string -> t * recovery

(** Append one record. [structural] events are fsynced through to disk
    before returning; live (up/down) events are written but not synced. *)
val append : t -> structural:bool -> Event.event -> unit

val close : t -> unit

(** Read-only scan of a journal file — what {!open_} would recover,
    without opening for append or truncating. Missing file = empty log. *)
val scan : string -> recovery
