(** Synthetic topology generators.

    These replace the proprietary production topologies in the paper's
    evaluation (see DESIGN.md, substitutions). All generators are
    deterministic given their [seed]. *)

(** The exact four-node example of Figure 1 / §2.1. Nodes A=0, B=1, C=2,
    D=3; single-link LAGs with capacities BD=8, CD=8, AD=9, BA=5, CA=4.
    With demands (B->D, C->D) it reproduces the paper's three scenarios:
    degradation 7 for fixed demands (12, 10); 1 for the naive worst case;
    9 for Raha's joint optimum. *)
val fig1 : unit -> Topology.t

(** [ring n] connects [n] nodes in a cycle. *)
val ring :
  ?links_per_lag:int -> ?link_capacity:float -> ?fail_prob:float -> int -> Topology.t

(** [grid rows cols] is a rows x cols mesh. *)
val grid :
  ?links_per_lag:int -> ?link_capacity:float -> ?fail_prob:float -> int -> int -> Topology.t

(** [africa_like ~seed ~n ()] models the continental WAN of §8.1 at a
    configurable scale: a backbone ring of hub cities with spurs and
    cross-links, LAGs of 1-4 links, heterogeneous capacities, and
    per-link failure probabilities spanning two orders of magnitude
    (fiber paths in the synthetic "south" are flakier, mimicking the
    seismic-risk region of the incident in §2). *)
val africa_like : ?seed:int -> ?n:int -> unit -> Topology.t
