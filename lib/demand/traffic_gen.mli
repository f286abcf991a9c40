(** Synthetic demand history.

    Substitutes for the paper's month of production telemetry: the
    experiments only consume the per-pair {e maximum} over the window
    (§8.1, Fig. 5), which this generator reproduces with a diurnal
    sinusoid plus log-normal noise per pair. *)

type series = {
  base : Demand.t;  (** per-pair mean level *)
  samples : Demand.t array;  (** one matrix per sampling interval *)
}

(** [generate ~seed ~days ~samples_per_day ~pairs ~mean_volume topo ()]
    simulates [days * samples_per_day] demand matrices. *)
val generate :
  seed:int ->
  days:int ->
  samples_per_day:int ->
  pairs:(int * int) list ->
  mean_volume:float ->
  Wan.Topology.t ->
  unit ->
  series

(** Per-pair maximum over the window — the paper's "fixed max demand". *)
val maximum : series -> Demand.t
