(** Named domain-local counters and the registry that lets a pool credit
    work done on its worker domains back to the domain that submitted it.

    Each counter holds one cumulative int per domain, so concurrent
    solves never race. {!Pool} snapshots the registry around every
    chunk it runs on a worker domain and adds the summed deltas to the
    submitting domain's counters when the sweep returns: reading a
    counter on the submitter then covers all the work of a call, at any
    domain count. *)

type t

(** [make name] declares and registers a counter. Make counters at
    module initialisation, before any pool runs a sweep. *)
val make : string -> t

val name : t -> string
val incr : t -> unit
val add : t -> int -> unit

(** The calling domain's cumulative value. *)
val get : t -> int

(** Every counter made so far, in declaration order. *)
val registry : unit -> t list

(** The calling domain's value of every registered counter, in
    declaration order. *)
val snapshot : unit -> int array

(** [credit deltas] adds [deltas.(i)] to the [i]-th registered counter
    on the calling domain. *)
val credit : int array -> unit
