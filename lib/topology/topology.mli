(** WAN topologies: nodes connected by {!Lag} edges.

    Nodes are dense integer ids with optional names. LAGs are undirected;
    a LAG's capacity constrains the total flow across it in both
    directions, matching the path-form TE model of §4.2. *)

type t

(** [create ~name ~num_nodes lags] validates endpoints and builds the
    topology. Node names default to ["n<i>"].
    @raise Invalid_argument on out-of-range endpoints or non-dense LAG
    ids. *)
val create : ?node_names:string array -> name:string -> num_nodes:int -> Lag.t list -> t

val name : t -> string
val num_nodes : t -> int
val num_lags : t -> int

(** Total number of physical links across all LAGs. *)
val num_links : t -> int

val lags : t -> Lag.t array
val lag : t -> int -> Lag.t
val node_name : t -> int -> string

(** [node_id t name] looks a node up by name. @raise Not_found. *)
val node_id : t -> string -> int

(** [neighbors t v] lists [(neighbor, lag_id)] pairs. Parallel LAGs
    produce multiple entries. *)
val neighbors : t -> int -> (int * int) list

(** [lag_between t u v] is the lowest-id LAG joining [u] and [v], if any. *)
val lag_between : t -> int -> int -> Lag.t option

(** Mean LAG capacity — the normalization constant used by every
    "degradation (normalized)" figure in the paper (§8.1). *)
val avg_lag_capacity : t -> float

val is_connected : t -> bool

(** [with_lag_links t ~lag_id links] replaces one LAG's bundle (used by
    capacity augmentation to add links to an existing LAG). *)
val with_lag_links : t -> lag_id:int -> Lag.link list -> t

(** [add_lag t ~src ~dst links] appends a new LAG (used by new-LAG
    augmentation, Appendix C). *)
val add_lag : t -> src:int -> dst:int -> Lag.link list -> t

val pp : Format.formatter -> t -> unit
