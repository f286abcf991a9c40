(** Structured export of analysis results.

    Operators feed Raha's findings into ticketing and capacity-planning
    pipelines; this module renders an {!Analysis.report} as one CSV
    summary row (the daemon's deep-stage alert pushes carry it). *)

(** One CSV line: status, degradation, normalized, bound, #failed links,
    scenario probability, healthy and failed performance, B&B nodes.
    No wall clock, so the same solve renders the same bytes. *)
val summary_row : Analysis.report -> string
