(** Failure scenarios: sets of simultaneously-failed physical links.

    A link is addressed as [(lag_id, link_index)]. A LAG is down only when
    all of its links are down; partial failures reduce its capacity
    (§1: "RAHA can model partial failures"). *)

type t

val empty : t

(** [of_links topo links] validates indices and builds a scenario.
    @raise Invalid_argument on out-of-range or duplicate links. *)
val of_links : Wan.Topology.t -> (int * int) list -> t

val links : t -> (int * int) list

(** Number of failed physical links — the paper's "number of failures"
    metric (§8.1). *)
val num_failed : t -> int

val is_down : t -> lag:int -> link:int -> bool

(** Live capacity of a LAG under the scenario. *)
val lag_capacity : Wan.Topology.t -> t -> int -> float

(** True when every link of the LAG is failed (Eq. 3). *)
val lag_down : Wan.Topology.t -> t -> int -> bool

(** [path_down topo t lag_ids] is true when some LAG on the path is fully
    down (Eq. 4). *)
val path_down : Wan.Topology.t -> t -> int list -> bool

(** Steady-state probability of exactly this scenario: failed links down,
    all other links up (independent links). *)
val prob : Wan.Topology.t -> t -> float

(** [log_prob] is numerically safe for tiny probabilities; [-inf] when
    some failed link has probability 0. *)
val log_prob : Wan.Topology.t -> t -> float

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
