(** Branch-and-bound MILP solver over the {!Simplex} LP solver.

    Best-bound search with a depth tiebreak, variable branching priorities
    (the Raha encodings branch on link-failure binaries first), an optional
    warm-start incumbent, and node/time limits. Time limits make the solver
    return its best incumbent together with the remaining bound — this is
    the "timeout" behaviour §6 of the paper relies on.

    The one primal heuristic is LP-guided diving (fix the most
    fractional integer variable, re-solve warm, repeat). It runs from
    each plunge hint, at the root, every 40 nodes while no incumbent
    exists and every 400 nodes. Every dive candidate is re-checked
    against the model at [int_tol] (a gate {!Certify} implies) before it
    can become the incumbent. *)

(** Branching-variable selection rule. *)
type branching =
  | Reliability
      (** Pseudocost branching with strong-branching initialization:
          per-variable up/down degradation estimates, seeded by dual
          warm-started probes of both children until a variable has
          enough observations to be reliable, then maintained from every
          child LP solved in the tree. Ties break on (score, lowest id),
          so the selection is deterministic. Default. *)
  | Fractional
      (** Legacy most-fractional rule: branch on the variable whose LP
          value is furthest from an integer. *)

type options = {
  max_nodes : int;
      (** node budget: the search solves at most this many node LPs;
          default 200_000 *)
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
          root bounds and dived from for an initial incumbent. Raha seeds
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
  pool : unit option;  (** Ignored; the search runs on the calling domain. *)
  par_width : int;  (** Ignored. *)
  par_grain : int;
      (** Ignored. [pool], [par_width] and [par_grain] configured the
          parallel subtree rounds the search no longer has; they stay
          only while the repository benchmark's options literal sets
          them. *)
  branching : branching;
      (** Branching-variable selection rule; default {!Reliability}.
          [Fractional] restores the pre-pseudocost search exactly (no
          probes, no pseudocost bookkeeping). *)
  heuristics : bool;  (** Ignored. *)
  rins_freq : int;
      (** Ignored. [heuristics] and [rins_freq] configured the
          feasibility pump and RINS the search no longer has; they stay
          only while the repository benchmark's options literal sets
          them. *)
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

(** Always [0]: the search has no parallel subtree rounds. Kept only
    while the repository benchmark's trace hooks read it. *)
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
      (** the calling domain's pivot-counter delta over the solve *)
  elapsed : float;
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
