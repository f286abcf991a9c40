(** Simple paths through a {!Wan.Topology}. *)

type t = private {
  nodes : int array;  (** node sequence, length >= 2 *)
  lag_ids : int array;  (** LAG of each hop; length = |nodes| - 1 *)
}

(** [make topo nodes] builds a path along [nodes], picking the (lowest-id)
    LAG for each consecutive pair.
    @raise Invalid_argument if a hop has no LAG, the path revisits a node,
    or it is shorter than one hop. *)
val make : Wan.Topology.t -> int list -> t

(** Number of hops (LAGs). *)
val length : t -> int

val mem_lag : t -> int -> bool

(** Nodes as a list (copy). *)
val node_list : t -> int list

val lag_list : t -> int list

(** [weight w p] is the sum of [w lag_id] over the path's hops. *)
val weight : (int -> float) -> t -> float

(** True when the two paths share no LAG. *)
val lag_disjoint : t -> t -> bool

val equal : t -> t -> bool
val pp : Wan.Topology.t -> Format.formatter -> t -> unit
