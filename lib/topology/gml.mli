(** Parser for the GML subset used by the Internet Topology Zoo, so real
    Zoo files can be dropped in next to the embedded stand-ins.

    Supports [graph [ node [ id .. label .. ] edge [ source .. target .. ] ]]
    with arbitrary extra key/value attributes (skipped), nested blocks,
    quoted strings, comments and multi-edges (parallel edges collapse
    into one LAG per node pair). *)

(** [parse_string ~name ?link_capacity ?fail_prob s] parses GML text.
    Each surviving edge becomes a single-link LAG.
    @raise Failure with a line-oriented message on malformed input,
    including a duplicate node id and a non-integral node id, edge
    source or target. *)
val parse_string :
  ?link_capacity:float -> ?fail_prob:float -> name:string -> string -> Topology.t

(** [load_file ?link_capacity ?fail_prob path] reads and parses a file;
    the topology is named after the file's basename. *)
val load_file : ?link_capacity:float -> ?fail_prob:float -> string -> Topology.t
