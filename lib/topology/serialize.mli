(** Native text format for topologies.

    GML (Topology Zoo) carries neither LAG structure nor per-link failure
    probabilities, both of which Raha's analysis needs; this simple
    line-oriented format round-trips everything:

    {v
    wan <name>
    nodes <count>
    node <id> <name>
    lag <src> <dst>
    link <capacity> <fail_prob>
    v}

    [node] lines are optional (default names); [link] lines attach to the
    most recent [lag]. Lines starting with [#] are comments. *)

val to_string : Topology.t -> string

(** @raise Failure with a [line N: ...] message on malformed input:
    unparsable fields, a node count above [2^20], a capacity that is
    not positive and finite, a
    [fail_prob] outside [0, 1] (NaN included), a node id or LAG endpoint
    outside [0, nodes), a repeated [node] id or [nodes] line, a
    self-loop or a LAG with no links. A file with no [nodes] line fails with
    ["missing 'nodes' line"]. *)
val of_string : string -> Topology.t

val save : Topology.t -> string -> unit
val load : string -> Topology.t
