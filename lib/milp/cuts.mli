(** Cutting-plane subsystem: Gomory mixed-integer cuts, knapsack cover
    cuts and clique (implication) cuts over a managed cut pool.

    The Raha bilevel MILPs mix big-M complementarity rows with small
    cardinality/knapsack rows (the [<= k] failure budget and the
    log-probability threshold), whose LP relaxations are weak. This
    module tightens them with three classic cut families:

    - {b Gomory mixed-integer (GMI) cuts} read a tableau row of a
      fractional integer basic variable through {!Basis.btran} /
      {!Sparse.col_dot} and apply the mixed-integer rounding formula.
      Nonbasic columns are shifted to their {e solve-global} bounds
      (never node-local branching bounds), so every emitted cut is valid
      for the whole tree, not just the node that separated it.
    - {b Knapsack cover cuts} greedily separate minimal covers on rows
      whose support is all binary (negative coefficients are
      complemented), yielding [sum_{j in C} x_j <= |C| - 1].
    - {b Clique cuts} come from a pairwise conflict graph built once
      from the rows' minimal activities — exactly the structure
      [Linearize]'s big-M indicator and product rows produce — and are
      separated as greedy violated cliques [sum of literals <= 1].

    Cuts are plain [<=] rows over structural variables (slack columns
    of the separation LP are substituted out), normalized to max |coeff|
    = 1, and held in a pool with duplicate hashing on the normalized
    support, activity-based aging and a bounded size. {!Branch_bound}
    applies the active set by re-preparing the LP with
    {!extend_model} and keeps dual warm starts valid through
    {!Simplex.extend_basis} (cuts only append rows).

    Every candidate is audited before activation — finite coefficients,
    bounded dynamism, and satisfaction by the current incumbent under a
    compensated dot product (the {!Certify} discipline) — and the active
    set is re-audited against every new incumbent. A failed audit drops
    the cut and bumps the [cut-audit-failures] counter instead of
    corrupting the search. *)

type family = Gomory | Cover | Clique

(** The one cut setting callers choose: on ({!default}) or off
    ({!disabled}). Everything else is fixed: all three families,
    {!root_rounds} rounds at the root, one in-tree round every
    {!node_interval} nodes, at most 20 activations per round into a
    pool of 200, cuts of at most 200 nonzeros, and a cut slack at the
    separation point for more than 12 consecutive rounds is pruned. *)
type options = { enable : bool }

val default : options
val disabled : options

(** Separation rounds at the root node (6). *)
val root_rounds : int

(** One separation round every this many branch-and-bound nodes
    (200). *)
val node_interval : int

(** A pooled cut: [sum terms <= rhs] over structural variable ids, with
    max |coefficient| = 1. *)
type cut = private {
  terms : (float * int) array;  (** (coefficient, var id), id-sorted *)
  rhs : float;
  family : family;
  mutable age : int;  (** consecutive slack separation rounds *)
}

type pool

(** [create model] scans the model's rows once, collecting the
    binary knapsack candidates and the pairwise conflict graph, and
    records the solve-global variable bounds GMI shifts use. [model]
    must be the model branch-and-bound solves (post-presolve). *)
val create : Model.t -> pool

(** [separate_round pool ~sp ~rows ~point ~basis ~incumbent] runs one
    separation round at the fractional [point] (structural values) and
    returns the number of cuts activated. [sp] and [rows] describe the
    {e extended} LP the point was solved on ([rows] maps each row to
    its structural terms and rhs, used to substitute slack columns out
    of GMI cuts); [basis] supplies the final basis columns and statuses
    when the revised engine produced one — without it the Gomory family
    is skipped. Candidates are audited against [incumbent] before
    activation; rejects bump [cut-audit-failures]. *)
val separate_round :
  pool ->
  sp:Sparse.t ->
  rows:(Linexpr.t * float) array ->
  point:float array ->
  basis:(int array * Simplex.vstat array) option ->
  incumbent:float array option ->
  int

(** Age the active cuts against the current LP point — tight resets the
    age, slack increments it — and prune cuts slack for more than 12
    rounds. Returns
    the number pruned (pruning invalidates extended bases built on the
    previous row set; see {!Simplex.extend_basis}). *)
val age_and_prune : pool -> point:float array -> int

(** Re-audit the active cuts against a new incumbent; failing cuts are
    removed (and counted in [cut-audit-failures]). Returns the number
    removed — nonzero means the caller must re-prepare and may no
    longer claim optimality. *)
val audit_incumbent : pool -> float array -> int

(** [extend_model base pool] is [base] with the active cuts appended as
    [<=] rows (a fresh model; [base] itself is never mutated). With an
    empty active set, [base] is returned unchanged, so row indices of
    the extension are always: base rows first, then the active cuts in
    activation order. *)
val extend_model : Model.t -> pool -> Model.t

val active_count : pool -> int

(** Active cuts in activation order (for tests and diagnostics). *)
val active_cuts : pool -> cut list

(** Compensated evaluation of the cut's left-hand side at a point. *)
val eval_cut : cut -> float array -> float
