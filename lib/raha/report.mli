(** Structured export of analysis results.

    Operators feed Raha's findings into ticketing and capacity-planning
    pipelines; this module renders {!Analysis.report} values as CSV rows
    (one summary row per analysis, one detail row per affected pair). *)

(** Header line matching {!summary_row}. *)
val summary_header : string

(** One CSV line: status, degradation, normalized, bound, #failed links,
    scenario probability, healthy and failed performance, elapsed
    seconds, B&B nodes. *)
val summary_row : Analysis.report -> string

(** Header line matching {!pair_rows}. *)
val pair_header : string

(** One CSV line per demand pair: src, dst, worst-case demand, healthy
    flow, failed flow, loss. *)
val pair_rows : Analysis.report -> string list

(** Full CSV document (summary section then per-pair section). *)
val to_csv : Analysis.report -> string
