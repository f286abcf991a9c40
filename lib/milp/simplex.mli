(** Bounded-variable revised simplex on a sparse CSC matrix with an
    LU-factorized basis ({!Basis}), plus a dual simplex for
    warm-started re-solves.

    This is the default LP kernel. A cold solve runs a composite
    phase-1 primal (dynamic infeasibility costs on out-of-bound basics,
    no artificial columns — every row carries a logical slack, so the
    all-slack basis is always a valid start) followed by the primal
    phase 2. A warm solve re-installs a caller-supplied basis and runs
    the dual simplex: after a branch-and-bound bound change the
    parent's optimal basis stays dual feasible, so children typically
    finish in a handful of dual pivots. Numerical trouble on the warm
    path falls back to a cold primal solve on the remaining iteration
    budget.

    The legacy dense tableau ({!Dense_simplex}) remains reachable
    through [~engine:Dense] ({!Branch_bound.options.engine}) for
    differential testing.

    Anti-cycling: after [degen_limit] consecutive degenerate pivots
    both primal and dual ratio tests switch to Bland's rule (lowest
    eligible index) for the rest of the solve. *)

type result =
  | Optimal of { obj : float; values : float array }
      (** Proven optimal; [values] is indexed by model variable id. *)
  | Infeasible
  | Unbounded
  | Iter_limit
      (** The iteration budget was exhausted before optimality. *)

(** Status of a column in a returned basis. [At_zero] marks a free
    nonbasic column resting at 0. *)
type vstat = Basic | At_lower | At_upper | At_zero

type engine = Revised | Dense

(** An optimal (or final) basis: statuses and basic-column selection
    for the internal standard form (structurals followed by one slack
    per row). Opaque enough to pass back as [?warm]; use
    {!var_statuses} for the structural statuses. *)
type basis

(** A model together with its CSC standard form, built once and shared
    across re-solves (the matrix depends only on the rows, never on
    variable bounds, so it is safe to share across B&B nodes). *)
type prepared

val prepare : Model.t -> prepared

(** The CSC standard form of a prepared model (shared, do not mutate).
    Exposed for row-generation clients ({!Cuts}) that need tableau
    access through {!Basis}/{!Sparse}. *)
val prep_sparse : prepared -> Sparse.t

(** The model a prepared form was built from (the audit target for
    {!Batch.check}). *)
val prep_model : prepared -> Model.t

(** [solve ?engine ?lb ?ub ?max_iters model] solves the LP relaxation
    of [model] (integrality is ignored). [lb]/[ub] override the model's
    variable bounds. The default iteration budget is
    [50 * (rows + cols) + 200]. Cold-starts; for warm starts use
    {!prepare} + {!solve_prepared}. *)
val solve :
  ?engine:engine ->
  ?lb:float array ->
  ?ub:float array ->
  ?max_iters:int ->
  Model.t ->
  result

(** [solve_prepared ?engine ?lb ?ub ?b ?max_iters ?degen_limit ?warm prep]
    is {!solve} on a prepared model, returning the final basis alongside
    the result (for [Optimal] under the revised engine; [None]
    otherwise). [?warm] supplies a starting basis — ignored if it was
    extracted from a differently-shaped model. [?degen_limit] sets the
    number of consecutive degenerate pivots tolerated before switching
    to Bland's rule (default [max 50 (rows + cols)]).

    [?b] overlays the row right-hand sides (length = rows) without
    rebuilding the CSC structure — the batched scenario path
    ({!Batch}). Duals and reduced costs never depend on the rhs, so any
    dual-feasible basis (in particular an optimal one) stays dual
    feasible under an overlay, making [?warm] + [?b] the cheap re-solve
    combination. Revised engine only; with an overlay the pathological
    dense-tableau degradation is unavailable and {!Basis.Singular}
    propagates instead.

    [?keep_factor] (default [false]) publishes the returned basis'
    factorization snapshot ({!Basis.snapshot}: LU plus eta file, no
    refactorization) eagerly instead of caching it on first warm use.
    Branch-and-bound shares a parent basis between both children; an
    eager snapshot lets every sharer reinstate without factorizing.
    @raise Invalid_argument on a wrong-length overlay or [engine=Dense]
    with an overlay. *)
val solve_prepared :
  ?engine:engine ->
  ?lb:float array ->
  ?ub:float array ->
  ?b:float array ->
  ?max_iters:int ->
  ?degen_limit:int ->
  ?warm:basis ->
  ?keep_factor:bool ->
  prepared ->
  result * basis option

(** [refute ?max_iters ~warm ~lb ~ub ~cutoff prep] tries to prove,
    without solving it, that the LP of [prep] under [lb]/[ub] has no
    point whose objective, in maximization terms (negated for a
    minimizing model), exceeds [cutoff]: that a solve of it comes back
    infeasible or at most at [cutoff]. It re-installs [warm] under the
    new bounds and runs the dual simplex; at the start and after every
    pivot the current basic solution's objective, less what its
    wrong-signed reduced costs could gain over their columns' ranges
    (weak duality; no bound when such a column's range is unbounded and
    its reduced cost exceeds rounding noise, [1e-10]), is a valid dual
    bound, and the run answers [true] as soon as that bound sits a
    margin of [1e-9 * max 1 |cutoff|] below [cutoff] — room for the
    rounding by which a cold solve may land above the warm bound. It
    answers [false] — nothing proved — when [warm] has another shape or
    is not dual feasible under the new bounds, when the dual simplex
    reaches an optimum, primal infeasibility or its iteration budget
    ([max_iters], default as {!solve}) first, and on numerical
    trouble. Revised engine only; returns no basis and counts
    its pivots like any dual pivot. *)
val refute :
  ?max_iters:int ->
  warm:basis ->
  lb:float array ->
  ub:float array ->
  cutoff:float ->
  prepared ->
  bool

(** Statuses of the structural (model) variables in a basis, indexed by
    variable id. *)
val var_statuses : basis -> vstat array

(** Statuses of every internal column (structurals followed by one slack
    per row; fresh copy). For tableau-row cut separation. *)
val basis_statuses : basis -> vstat array

(** Basic internal column of every row position (fresh copy), in the
    shape {!Basis.create} expects. *)
val basis_cols : basis -> int array

(** [extend_basis b prep] lifts a basis onto a prepared model that
    appended rows (cutting planes) to the model [b] came from: the new
    rows' slack columns enter as basic, making the basis matrix block
    lower triangular, so dual values and reduced costs — and hence dual
    feasibility — carry over unchanged. [None] when the shapes are
    incompatible (different structural count or fewer rows). Passing a
    basis of the same shape returns it as-is. *)
val extend_basis : basis -> prepared -> basis option
