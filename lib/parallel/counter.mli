(** Named domain-local counters and the registry that lets {!Pool.map}
    credit work done on its worker domains back to the calling domain.

    Each counter holds one cumulative int per domain, so concurrent
    solves never race, and starts at zero on every new domain. A
    {!Pool.map} worker domain therefore hands back its {!snapshot} as
    its share of the work, and the caller {!credit}s it before [map]
    returns: reading a counter on the caller then covers all the work
    of a call, at any domain count. *)

type t

(** [make name] declares and registers a counter. Make counters at
    module initialisation, before any {!Pool.map} runs. *)
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
