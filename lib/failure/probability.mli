(** Scenario-probability utilities.

    The probability-threshold constraint (§5.1) compares the log
    probability of a failure scenario against [log T]. These helpers
    answer questions like Figure 2's: how many links can simultaneously
    fail while the scenario probability stays above a threshold? *)

(** [max_simultaneous_failures topo ~threshold] is the largest number of
    links that can be simultaneously down in a scenario with probability
    >= threshold, with one maximizing scenario. Always-down links
    ([fail_prob = 1]) are failed unconditionally — every
    positive-probability scenario has them down; the remaining links are
    failed greedily in decreasing [log p - log (1 - p)] order, which is
    optimal for maximizing the count. Returns [0, empty scenario] when no
    greedily-reachable scenario meets the threshold. *)
val max_simultaneous_failures : Wan.Topology.t -> threshold:float -> int * Scenario.t

(** [per_link_cost topo] lists [((lag, link), log p - log (1-p))] — the
    log-probability cost of failing each link, sorted most-likely first.
    An always-down link ([fail_prob = 1]) has cost [+inf]: failing it is
    mandatory for the scenario to have positive probability at all. *)
val per_link_cost : Wan.Topology.t -> ((int * int) * float) list
