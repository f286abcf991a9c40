(** Branch-and-bound MILP solver over the {!Simplex} LP solver.

    Best-bound search with a depth tiebreak, variable branching priorities
    (the Raha encodings branch on link-failure binaries first), an optional
    warm-start incumbent, and node/time limits. Time limits make the solver
    return its best incumbent together with the remaining bound — this is
    the "timeout" behaviour §6 of the paper relies on. *)

(** Branching-variable selection rule. *)
type branching =
  | Reliability
      (** Pseudocost branching with strong-branching initialization:
          per-variable up/down degradation estimates, seeded by dual
          warm-started probes of both children until a variable has
          enough observations to be reliable, then maintained from every
          child LP solved in the tree. Ties break on (score, lowest id),
          so the selection is deterministic and bit-identical across
          pool widths. Default. *)
  | Fractional
      (** Legacy most-fractional rule: branch on the variable whose LP
          value is furthest from an integer. *)

type options = {
  max_nodes : int;  (** node budget; default 200_000 *)
  time_limit : float;  (** wall-clock seconds; default [infinity] *)
  abs_gap : float;  (** stop when [bound - incumbent <= abs_gap] *)
  rel_gap : float;  (** stop on relative gap; default 1e-6 *)
  int_tol : float;  (** integrality tolerance; default 1e-6 *)
  log : bool;  (** emit progress on [Logs] *)
  branch_priority : int -> int;
      (** Higher priority variables are branched first; default [fun _ -> 0]. *)
  warm_start : float array option;
      (** Candidate solution checked for feasibility and used as the
          initial incumbent. *)
  plunge_hints : (int * float) list list;
      (** Partial assignments [(var id, value)]: each is fixed into the
          root bounds and plunged for an initial incumbent. Raha seeds
          these with concrete candidate failure scenarios. *)
  engine : Simplex.engine;
      (** LP kernel for node relaxations; default {!Simplex.Revised}.
          Under the revised engine every child node warm-starts from its
          parent's optimal basis via the dual simplex. *)
  sx_iters : int option;
      (** Per-LP simplex iteration budget; default [None] (the engine's
          own default). A node whose LP exhausts this budget is dropped
          from the search with its parent bound folded into the final
          bound, and the outcome degrades [Optimal] -> [Feasible]
          (exposed mainly so tests can force the degradation path). *)
  cuts : Cuts.options;
      (** Cutting planes ({!Cuts}): {!Cuts.root_rounds} separation
          rounds run at the root only, the LP is re-prepared on the
          extended row set, and each round's basis extends over the
          appended cut rows so dual warm starts survive. Default
          {!Cuts.default}; [Cuts.disabled] restores the pre-cut search
          exactly. A cut that fails its incumbent audit is dropped and
          taints the outcome ([Optimal] -> [Feasible]). *)
  pool : Parallel.Pool.t option;
      (** Domain pool for concurrent subtree solves; default [None]
          (rounds run inline). The round scheduler is the same algorithm
          either way — it engages purely on frontier width — so results
          and all counters are bit-identical for any pool width,
          including no pool at all. *)
  par_width : int;
      (** Open-node frontier size at which the search switches from
          sequential best-first steps to parallel subtree rounds
          (clamped to [>= 2] so the root is always processed
          sequentially). Default 32. *)
  par_grain : int;
      (** Per-task node budget within one round: each frontier subtree
          explores at most this many nodes before handing its open
          nodes back at the barrier. Default 64. *)
  branching : branching;
      (** Branching-variable selection rule; default {!Reliability}.
          [Fractional] restores the pre-pseudocost search exactly (no
          probes, no pseudocost bookkeeping). *)
  heuristics : bool;
      (** Enable the feasibility pump and RINS ({!Heuristics});
          default [true]. [false] keeps only the legacy diving cadence.
          Every heuristic candidate is re-checked against the model at
          [int_tol] — the same tolerance {!Certify} enforces — before it
          can become the incumbent, so heuristics can never admit an
          incumbent the certifier would reject. *)
  rins_freq : int;
      (** Run RINS every this many nodes once an incumbent exists;
          [<= 0] disables RINS. Default 200. *)
  on_incumbent : (float array -> unit) option;
      (** Called with each accepted incumbent point (after the
          feasibility re-check, before cut audit); default [None].
          Exposed for tests that assert properties of every incumbent
          the search admits. *)
}

val default : options

(** Node-heap ordering on [(parent bound, depth)]: true when the first
    node should be explored before the second. Bounds within a relative
    tolerance count as ties and fall through to the deeper-first
    tiebreak (exposed for unit tests). *)
val better_key : float * int -> float * int -> bool

(** Domain-local cumulative count of parallel subtree rounds. Rounds
    are scheduled by the solve's owner domain, so reading this before
    and after a solve on the calling domain gives that solve's round
    count whatever pool (if any) ran the subtree tasks. *)
val cumulative_rounds : unit -> int

type outcome =
  | Optimal  (** incumbent proven optimal within the gap *)
  | Feasible
      (** limits hit with an incumbent in hand, or a node's LP hit its
          iteration budget and was dropped — either way an unexplored
          subtree remains, covered by [bound] *)
  | No_incumbent  (** limits hit before any incumbent was found *)
  | Infeasible
  | Unbounded

type stats = {
  nodes : int;
  simplex_iters : int;
      (** the calling domain's pivot-counter delta over the solve; the
          pool credits tasks' pivots back to it, so it is identical
          across pool widths *)
  elapsed : float;
  rounds : int;  (** parallel subtree rounds executed (0 = pure sequential) *)
  dropped : int;  (** subtrees dropped on a per-LP iteration budget *)
  dropped_key : float;
      (** tightest parent bound over the dropped subtrees, in the
          internal maximization sense; [neg_infinity] when none. Folded
          into the reported [bound]; exposed so determinism tests can
          compare the dropped-subtree accounting directly. *)
}

type t = {
  outcome : outcome;
  obj : float;  (** incumbent objective (meaningful for Optimal/Feasible) *)
  bound : float;  (** best remaining dual bound *)
  values : float array;  (** incumbent point, indexed by variable id *)
  stats : stats;
}

(** Solve the MILP. The returned [bound] always brackets the true optimum:
    for maximization, [obj <= optimum <= bound]. *)
val solve : ?options:options -> Model.t -> t
