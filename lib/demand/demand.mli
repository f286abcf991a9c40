(** Demand matrices: traffic volume per (source, destination) pair. *)

type t

val empty : t

(** [add m (src, dst) v] adds one entry, or says why it is invalid: a
    negative node id, [src = dst], a volume that is negative or not
    finite, or a pair [m] already holds. *)
val add : t -> int * int -> float -> (t, string) result

(** [of_list entries] builds a matrix from [((src, dst), volume)] pairs.
    @raise Invalid_argument on any entry {!add} rejects. *)
val of_list : ((int * int) * float) list -> t

(** Volume for a pair ([0.] when absent). *)
val volume : t -> src:int -> dst:int -> float

(** The pairs with (possibly zero) recorded volume, sorted. *)
val pairs : t -> (int * int) list

val entries : t -> ((int * int) * float) list
val total : t -> float
val scale : float -> t -> t

(** Pointwise maximum of two matrices (union of pairs). *)
val union_max : t -> t -> t

(** [set d ~src ~dst v] functional update. *)
val set : t -> src:int -> dst:int -> float -> t

val map : (src:int -> dst:int -> float -> float) -> t -> t
val pp : Format.formatter -> t -> unit
