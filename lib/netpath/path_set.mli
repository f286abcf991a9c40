(** Tunnel (path) selection for a set of node pairs.

    Raha accepts any path selection policy (§3); these are the policies
    the paper evaluates: plain k-shortest paths (default), weighted
    k-shortest paths (Fig. 13: LAG weights steer paths apart), and
    LAG-disjoint greedy selection. Each pair gets an ordered list —
    primaries first, then backups in fail-over priority order (§4.2). *)

type scheme =
  | Hop_count  (** k shortest by hop count *)
  | Weighted of (int -> float)  (** k shortest by custom LAG weights *)
  | Usage_penalized
      (** after each selected path, the weight of its LAGs grows, which
          de-correlates the selected paths (the §8.1 production scheme:
          "we use the number of paths as the weight of each LAG") *)
  | Lag_disjoint  (** greedily keep only LAG-disjoint paths *)

type pair = {
  src : int;
  dst : int;
  primary : Path.t list;
  backup : Path.t list;  (** in fail-over priority order *)
}

(** Ordered paths: primaries then backups. *)
val all_paths : pair -> Path.t list

val num_primary : pair -> int
val num_backup : pair -> int

type t = pair list

(** [compute topo ~scheme ~n_primary ~n_backup pairs] selects paths for
    every [(src, dst)] pair. Fewer paths than requested may exist; a pair
    with no path at all raises [Invalid_argument] (the topology is
    disconnected). *)
val compute :
  ?scheme:scheme ->
  n_primary:int ->
  n_backup:int ->
  Wan.Topology.t ->
  (int * int) list ->
  t

(** [find t ~src ~dst] returns the pair's paths. @raise Not_found. *)
val find : t -> src:int -> dst:int -> pair

(** Total number of paths across all pairs. *)
val total_paths : t -> int
