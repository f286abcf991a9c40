(** Link aggregation groups (LAGs).

    A WAN edge is a LAG: a bundle of physical links, each with its own
    capacity and failure probability (§4.2 of the paper). A LAG's capacity
    is the sum of its live links' capacities; a LAG is {e down} only when
    every constituent link is down (Eq. 3). *)

type link = {
  link_capacity : float;  (** Gbps (or any consistent unit) *)
  fail_prob : float;
      (** steady-state probability the link is down; [1.] models an
          always-down link (e.g. a renewal-reward estimate over a
          telemetry window the link spent entirely down) *)
}

type t = {
  lag_id : int;  (** dense id within the owning topology *)
  src : int;
  dst : int;  (** endpoint node ids; LAGs are undirected *)
  links : link array;
}

(** [check_link l] says why [l] is invalid: a capacity that is not
    positive and finite, or a [fail_prob] outside [0, 1] (NaN
    included). *)
val check_link : link -> (unit, string) result

(** [make ~id ~src ~dst links] validates and builds a LAG.
    @raise Invalid_argument on self-loops, negative node ids, empty
    bundles or any link {!check_link} rejects. *)
val make : id:int -> src:int -> dst:int -> link list -> t

(** [uniform ~id ~src ~dst ~n ~capacity ~fail_prob] builds a LAG of [n]
    identical links. *)
val uniform :
  id:int -> src:int -> dst:int -> n:int -> capacity:float -> fail_prob:float -> t

(** Total capacity with all links up. *)
val capacity : t -> float

val num_links : t -> int

(** Probability that every link in the LAG is simultaneously down
    (independent links). *)
val prob_all_links_down : t -> float

val pp : Format.formatter -> t -> unit
