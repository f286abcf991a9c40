(** Capacity augmentation (§7 and Appendix C).

    One iterative loop serves both families: run the analysis; if the
    worst probable failure scenario degrades performance beyond the
    tolerance ({!Alert.decide} on the report as a deep answer, the alert
    pipeline's rule), solve for the cheapest capacity addition that lets
    the failed network match the healthy network's per-demand flows
    under that scenario; apply it and repeat until the report proves the
    tolerance is not exceeded (the paper observes convergence in 2-6
    steps). The loop also stops, unconverged, on an unproven report
    below the tolerance, when the healthy network cannot route the worst
    demand, when no addition fixes the scenario, or after [max_steps]
    additions.

    Two augment families:
    - {!augment_lags}: add links to existing LAGs (the preferred and
      simpler form). New links either can fail — with the average failure
      probability of their LAG, as §8.6 prescribes — or are assumed
      failure-free (the prior-work setting of Fig. 17).
    - {!augment_new_lags}: add whole new LAGs drawn from an
      operator-supplied candidate edge list, sized with the
      edge-formulation MCF of Appendix C (new LAGs change the path set,
      which the path form cannot express). *)

type step = {
  report : Analysis.report;  (** the analysis that triggered this step *)
  lag_links_added : (int * int) list;  (** (lag_id, #links) *)
  new_lags_added : ((int * int) * int) list;  (** ((src, dst), #links) *)
}

type result = {
  steps : step list;  (** one per iteration that needed an augment *)
  final : Analysis.report;  (** analysis of the augmented network *)
  topo : Wan.Topology.t;  (** the augmented topology *)
  total_links_added : int;  (** links added over all [steps], either family *)
  converged : bool;  (** final report proves the tolerance {!Alert.Within} *)
}

(** [augment_lags ~options ~link_capacity topo paths envelope] runs the
    existing-LAG loop. [link_capacity] is the capacity of each added link
    (defaults to the topology's average per-link capacity).
    [new_capacity_can_fail] (default [true]) assigns added links the mean
    failure probability of their LAG; [false] reproduces the prior-work
    assumption. [tolerance] is the normalized degradation considered
    "no impact" (default 1e-6). [max_steps] bounds the loop. *)
val augment_lags :
  ?options:Analysis.options ->
  ?link_capacity:float ->
  ?new_capacity_can_fail:bool ->
  ?tolerance:float ->
  ?max_steps:int ->
  Wan.Topology.t ->
  Netpath.Path_set.t ->
  Traffic.Envelope.t ->
  result

(** [augment_new_lags ~candidates ...] allows adding new LAGs between the
    candidate node pairs (plus links on existing LAGs). Paths are
    recomputed (same primary/backup counts and selection scheme inputs
    are the caller's responsibility: pass a [repath] function). *)
val augment_new_lags :
  ?options:Analysis.options ->
  ?link_capacity:float ->
  ?new_capacity_can_fail:bool ->
  ?tolerance:float ->
  ?max_steps:int ->
  candidates:(int * int) list ->
  repath:(Wan.Topology.t -> Netpath.Path_set.t) ->
  Wan.Topology.t ->
  Traffic.Envelope.t ->
  result
