(** Parser for the GML subset used by the Internet Topology Zoo, so real
    Zoo files can be dropped in next to the embedded stand-ins.

    Supports [graph [ node [ id .. label .. ] edge [ source .. target .. ] ]]
    with arbitrary extra key/value attributes (skipped), nested blocks,
    quoted strings, comments and multi-edges (parallel edges collapse
    into one LAG per node pair). *)

(** [parse_string ~name ?link_capacity ?fail_prob s] parses GML text.
    Each surviving edge becomes a single-link LAG.
    @raise Failure with a message [Gml: line N: ...] on malformed
    input. A syntax error names the line of the offending token; a
    semantic error (a duplicate node id, a non-integral node id, edge
    source or target, an edge to an unknown node, a [graph] entry that
    is not a block) names the line of the block at fault. *)
val parse_string :
  ?link_capacity:float -> ?fail_prob:float -> name:string -> string -> Topology.t

(** [load_file ?link_capacity ?fail_prob path] reads and parses a file;
    the topology is named after the file's basename. *)
val load_file : ?link_capacity:float -> ?fail_prob:float -> string -> Topology.t
