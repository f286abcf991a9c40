(** Exhaustive scenario enumeration.

    Serves two roles: (1) the "up to k failures" baseline tools Raha is
    compared against in every figure (§8.1 "Benchmark"); (2) an
    independent oracle used by the test suite to validate the MILP
    encodings on small instances. *)

(** [up_to_k topo ~k] lists every scenario with at most [k] failed links
    (including the empty scenario).
    @raise Invalid_argument if the count would exceed ~2 million. *)
val up_to_k : Wan.Topology.t -> k:int -> Scenario.t list

(** [lag_failures_up_to_k topo ~k] lists scenarios in which up to [k]
    whole LAGs fail (all their links down) — the granularity of prior
    work such as FFC (§2.2). *)
val lag_failures_up_to_k : Wan.Topology.t -> k:int -> Scenario.t list

(** Number of scenarios [up_to_k] would produce (no allocation). *)
val count_up_to_k : Wan.Topology.t -> k:int -> int

(** [binomial n k] is the exact binomial coefficient C(n, k) (0 when
    [k < 0] or [k > n]). Exposed for the counting identities the tests
    check [count_up_to_k] against. *)
val binomial : int -> int -> int
