(** Structured export of analysis results.

    Operators feed Raha's findings into ticketing and capacity-planning
    pipelines; this module renders an {!Analysis.report} as one CSV
    summary row (the daemon's deep-stage alert pushes carry it). *)

(** One CSV line: status, degradation, normalized, bound, #failed links,
    scenario probability, healthy and failed performance, elapsed
    seconds, B&B nodes. *)
val summary_row : Analysis.report -> string
