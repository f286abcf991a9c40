(** Builders for the TE objectives Raha supports.

    - {!Total_flow}: the production SWAN/B4-style LP of Eq. 2 (maximize
      total demand met);
    - {!Mlu}: minimize the maximum link utilization (Appendix A). LAG
      capacities stay constant and failures act through path extension
      capacities, exactly as the appendix prescribes;
    - {!Max_min}: the single-shot geometric/equi-depth binning
      approximation of max-min fairness (Appendix A, citing Soroush).

    Each builder returns an {!Lp_spec} plus an index mapping (pair, path)
    to spec columns, so callers can attach extra rows (the naive
    fail-over coupling, {!naive_failover_rows}) or read flows back from
    solutions. The rules both the direct-routing oracle and the bilevel
    MILP apply live here too: {!naive_failover_rows} and the
    {!degradation} sign rule. *)

type objective =
  | Total_flow
  | Mlu of { u_max : float }  (** cap on the MLU variable *)
  | Max_min of { bins : int; ratio : float }
      (** [ratio = 1.] is equi-depth binning; [> 1.] geometric *)

type pair_cols = {
  src : int;
  dst : int;
  n_primary : int;
  paths : Netpath.Path.t array;  (** priority order: primaries then backups *)
  path_cols : int array;  (** spec column of each path's flow *)
}

type index = {
  pair_arr : pair_cols array;
  u_col : int option;  (** the MLU variable's column, if any *)
  cap_rows : int array;
      (** per LAG: spec-row index of its capacity row, [-1] when absent
          (no path crosses the LAG, or MLU mode — whose utilization
          rows are scenario-independent, Appendix A). Row indices match
          the model-constraint / sparse-rhs order {!Lp_spec.to_model}
          preserves: what {!Milp.Batch} patches. *)
}

(** [build ~objective ~topo ~paths ~lag_cap ~demand ?path_cap ~d_max ()]
    assembles the LP. Each input is an {!Lp_spec.rhs}: a constant (red
    in the paper's Table 2) or an affine expression over the outer
    model's variables (blue).

    [lag_cap e] is LAG [e]'s capacity (variable under failures);
    [demand ~src ~dst] the demand volume; [path_cap ~pair ~path], when
    [Some], adds the extension-capacity row [f_kp <= path_cap] (Eq. 5's
    C_kp) — return [None] for paths that need no row (always-available
    primaries). The batched engine ({!Simulate.prepare}), whose caps are
    constants, passes none and bounds the path columns instead. [d_max]
    bounds every demand from above (big-M tightness).

    @raise Invalid_argument if [Mlu] is combined with non-constant
    [lag_cap] (Appendix A keeps MLU capacity rows constant). *)
val build :
  objective:objective ->
  topo:Wan.Topology.t ->
  paths:Netpath.Path_set.t ->
  lag_cap:(int -> Lp_spec.rhs) ->
  demand:(src:int -> dst:int -> Lp_spec.rhs) ->
  ?path_cap:(pair:int -> path:int -> Lp_spec.rhs option) ->
  d_max:float ->
  unit ->
  Lp_spec.t * index

(** Append extra rows (e.g. {!naive_failover_rows}). *)
val add_rows : Lp_spec.t -> Lp_spec.row list -> Lp_spec.t

(** [naive_failover_rows index ~healthy_index ~cap ~d_max] is the naive
    fail-over coupling of §5.1 for the failed network [index]: row
    [naive_k{k}_p{j}] caps primary [j]'s flow by healthy primary [j],
    and the [r]-th backup's by healthy primary [r] (backups beyond the
    number of primaries stay uncapped). [cap c] is the rhs for healthy
    column [c] of [healthy_index]: a constant healthy flow for the
    direct-routing oracle ({!Simulate.route}), the healthy inner
    problem's variable in the bilevel MILP. Rows come in reverse
    (pair, path) order, with slack bound [d_max]. *)
val naive_failover_rows :
  index ->
  healthy_index:index ->
  cap:(int -> Lp_spec.rhs) ->
  d_max:float ->
  Lp_spec.row list

(** Total flow routed for a pair in a solution vector. *)
val pair_flow : index -> int -> float array -> float

(** Total flow across all pairs. *)
val total_flow : index -> float array -> float

(** The objective the spec reports, interpreted per [objective]:
    total flow for [Total_flow] and [Max_min] (not the binned surrogate),
    the MLU for [Mlu]. *)
val performance : objective -> index -> float array -> float

(** The degradation sign rule: [healthy - failed] performance, or
    [failed - healthy] for [Mlu] (a higher MLU is worse). *)
val degradation : objective -> healthy:float -> failed:float -> float
