(** Embedded public topologies (Topology Zoo / TEAVAR), matching §8.4 and
    Appendix D.2 of the paper.

    [b4] (edge list reconstructed from the published topology figure;
    node/edge counts exact) and [abilene] (the published edge list) are
    the real topologies. [uninett2010] and
    [cogentco] are size-matched synthetic stand-ins (74 nodes / 101 LAGs
    and 197 nodes / 243 LAGs respectively): the real GML files are not
    redistributable here, so we generate connected mesh topologies with
    the same node and edge counts — the properties the paper's
    experiments depend on (see DESIGN.md). Link failure probabilities are
    assigned "based on values from our production network" exactly as the
    paper does for Zoo topologies (§8.1): sampled deterministically from
    the africa-like distribution. *)

(** Google B4 (12 nodes, 19 LAGs). Per Appendix D.2 of the paper, each
    LAG has a single link and the average LAG capacity is 5000. *)
val b4 : unit -> Topology.t

(** Uninett 2010 stand-in (74 nodes, 101 LAGs, avg capacity 1000). *)
val uninett2010 : unit -> Topology.t

(** [uninett2010_reduced ()] is a 20-node contraction used by default in
    the benches so the bundled MILP solver finishes quickly; pass
    [~full:true] to benches to use the 74-node version. *)
val uninett2010_reduced : unit -> Topology.t

(** Cogentco stand-in (197 nodes, 243 LAGs, avg capacity 1000). *)
val cogentco : unit -> Topology.t

(** 24-node contraction of the Cogentco stand-in (see above). *)
val cogentco_reduced : unit -> Topology.t

(** All embedded topologies by name (["b4"; "abilene"; ...]). *)
val by_name : string -> Topology.t option

val names : string list
