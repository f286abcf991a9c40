(** The outer problem's failure machinery (§5 of the paper).

    Adds to the outer MILP:
    - per-link failure binaries [u_le];
    - variable LAG capacity expressions [c_e = sum c_le (1 - u_le)];
    - LAG-down binaries [u_e] (Eq. 3: down iff {e all} links down);
    - path-down binaries [u_kp] (Eq. 4: down when any LAG on it is down);
    - path availability binaries [z_kpj] linearizing Eq. 5's indicator:
      path [j] (0-indexed, primaries first) may carry traffic iff
      [#down higher-priority paths + n_primary - j - 1 >= 0]. Primaries
      are always available and get no binary.

    The inner problems treat all of these as constants (blue in
    Table 2). *)

type t = {
  topo : Wan.Topology.t;
  paths : Netpath.Path_set.t;
  link_down : Milp.Model.var array array;  (** [lag_id].[link_idx] *)
  lag_down : Milp.Model.var array;
  path_down : Milp.Model.var array array;  (** [pair_idx].[path_idx] *)
  avail : Milp.Model.var option array array;
      (** [pair_idx].[path_idx]; [None] for always-available primaries *)
  lag_cap : Milp.Linexpr.t array;  (** live capacity of each LAG *)
}

val build : Milp.Model.t -> Wan.Topology.t -> Netpath.Path_set.t -> t

(** [add_probability_threshold m t ~threshold] adds the log-probability
    constraint of §5.1: scenarios must have probability >= threshold.
    @raise Invalid_argument if a link has [fail_prob = 0] (it could never
    fail; such links are excluded by fixing their binaries instead). *)
val add_probability_threshold : Milp.Model.t -> t -> threshold:float -> unit

(** [add_max_failures m t ~k]: at most [k] failed links (§5.1). *)
val add_max_failures : Milp.Model.t -> t -> k:int -> unit

(** [add_connected_enforced m t]: no pair may lose all of its paths
    (the CE constraint of §5.1/§8.1). *)
val add_connected_enforced : Milp.Model.t -> t -> unit

(** [add_srlgs m t groups] forces each group's member links to fail
    together. *)
val add_srlgs : Milp.Model.t -> t -> Failure.Srlg.t list -> unit

(** [add_path_up m t] adds Eq. 4's other direction,
    [u_kp <= sum_{e in p} u_e]: a path whose LAGs are all up is up.
    {!build} only forces a path down when one of its LAGs is down, which
    suffices when a down path can only help the failed network; an
    objective that can gain from closing a healthy path (MLU, whose
    primaries get capacity [d_max (1 - u_kp)]) needs this too. *)
val add_path_up : Milp.Model.t -> t -> unit

(** Read the failure scenario out of a solution. *)
val scenario_of_solution : t -> Milp.Solver.solution -> Failure.Scenario.t
