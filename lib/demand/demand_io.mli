(** CSV import/export for demand matrices.

    Format: one [src,dst,volume] triple per line; node ids are integers;
    [#]-prefixed lines and blank lines are skipped. *)

val to_csv : Demand.t -> string

(** @raise Failure with a [line N: ...] message on malformed input: a
    row that is not three fields, unparsable fields, or an entry
    {!Demand.add} rejects. *)
val of_csv : string -> Demand.t

val save : Demand.t -> string -> unit
val load : string -> Demand.t
