(** Assembly of the single-level MILP that answers Raha's question: which
    probable failure scenario and demand matrix jointly maximize the gap
    between the design point and the failed network (§4.1, Eq. 1)?

    The healthy network's LP is folded directly into the outer
    maximization (its objective carries a [+] sign, so the outer solver
    drives it to its own optimum). The failed network is replaced by
    optimality conditions via {!Inner}. *)

type encoding =
  | Kkt  (** continuous demands; big-M complementary slackness *)
  | Strong_duality of { levels : int }
      (** demands quantized to [levels] values per pair; strong-duality
          cut with McCormick products (default; far tighter) *)

type goal =
  | Max_degradation  (** the paper's objective: relative impact *)
  | Min_failed_performance
      (** prior work's objective (QARC, Robust): absolute worst case;
          used by the Fig. 3 baselines *)

type spec = {
  objective : Te.Formulation.objective;
  encoding : encoding;
  goal : goal;
  threshold : float option;  (** scenario probability >= T (§5.1) *)
  max_failures : int option;  (** at most k failed links (§5.1) *)
  connected_enforced : bool;  (** CE constraint (§8.1) *)
  naive_failover : bool;  (** §5.1 fail-over coupling; requires [Kkt] *)
  srlgs : Failure.Srlg.t list;
}

val default_spec : spec

type built = {
  model : Milp.Model.t;
  fm : Failure_model.t;
  healthy : Inner.t;
  healthy_route : Te.Simulate.result option;
      (** the healthy network's routing, solved outside the MILP on the
          fixed-demand fast path (§6); [None] when [healthy] is embedded *)
  failed : Inner.t;
  demand_exprs : ((int * int) * Milp.Linexpr.t) list;
  degradation : Milp.Linexpr.t;  (** the outer objective expression *)
  healthy_index : Te.Formulation.index;
  failed_index : Te.Formulation.index;
  branch_priority : int -> int;
      (** link-failure binaries first, then availability binaries *)
}

(** [build spec topo paths envelope] assembles the MILP.
    @raise Invalid_argument on incompatible combinations (naive fail-over
    or fixed-free continuous demands with [Strong_duality]; MLU with
    variable LAG capacities). *)
val build :
  spec -> Wan.Topology.t -> Netpath.Path_set.t -> Traffic.Envelope.t -> built

(** Read the worst-case demand matrix out of a solution. *)
val demand_of_solution : built -> Milp.Solver.solution -> Traffic.Demand.t

(** [hint built ~scenario ~demand] is a partial assignment fixing every
    outer structural variable (link/LAG/path failure binaries, Eq. 5
    availability binaries, demand levels) to a concrete candidate. Fed to
    the solver's plunge heuristic, it turns the candidate into an
    incumbent with a handful of LP solves — Raha's equivalent of warm
    starts. Demand values are snapped to the nearest quantization
    level. *)
val hint :
  built ->
  scenario:Failure.Scenario.t ->
  demand:Traffic.Demand.t ->
  (int * float) list
