(** Batched scenario solves: one {!Simplex.prepare}, many cheap
    overlays of the row right-hand sides and the column upper bounds
    (DESIGN.md §12).

    Scenario-heavy workloads (Monte Carlo sampling, failure
    enumeration, sweep grids) solve near-identical LPs that differ only
    in a few row right-hand sides (link capacities) and column upper
    bounds (paths a failure opens or blocks). A {!t} pays the CSC build
    and symbolic factorization work once; {!solve} then patches the rhs
    and upper-bound vectors once, re-solves through
    [Simplex.solve_prepared ?b ?ub ?warm] and audits the answer against
    the same vectors. Duals and reduced costs never
    depend on either, so an optimal basis of the base problem stays dual
    feasible under {e every} rhs overlay; under a bound overlay the only
    columns it can leave dual infeasible are nonbasic columns whose
    range the overlay widened, and when each is boxed the warm path
    flips it to its other bound and stays warm. Warm-started solves
    finish in a handful of dual pivots (with the cold-primal fallback on
    numerical trouble or an unflippable column built into the simplex
    driver).

    A [t] is immutable and safe to share read-only across domains:
    every {!solve} works on fresh copies, and its pivot sequence
    depends only on (structure, patched bounds, patched rhs, warm
    basis) — the determinism that keeps batched sweeps bit-identical
    across batch sizes and domain counts. *)

type t

(** Result of one overlay solve. [warm_hit] is true when the
    dual-simplex warm attempt finished the solve (no cold fallback).
    [audit] is the verdict of the independent audit of an [Optimal]
    answer ([None] for every other result): [Error] carries the first
    failed check. *)
type outcome = {
  result : Simplex.result;
  basis : Simplex.basis option;
  warm_hit : bool;
  audit : (unit, string) result option;
}

(** [prepare ?keep model] builds the shared structure: [Simplex.prepare]
    of the solved LP, private copies of the base rhs and of the model's
    upper bounds, and the model compiled for the audit
    ({!Certify.compile}). The solved LP is [model] with only the rows
    [keep] accepts (default: every row), the same variables, bounds and
    objective. Leaving a row out is the caller's claim that no overlay
    it solves can make that row bind; {!solve} audits every answer
    against the whole model, so a wrong claim fails the audit. Bumps
    the batch-prepares counter. *)
val prepare : ?keep:(int -> bool) -> Model.t -> t

(** The underlying prepared LP, the kept rows only (shared, do not
    mutate). *)
val prep : t -> Simplex.prepared

(** Fresh copy of the base rhs of every model row, the dropped ones
    included (row order = model constraint order). *)
val base_rhs : t -> float array

(** [(solved, full)]: the rows of the solved LP and of the model. *)
val rows : t -> int * int

(** [solve ?warm ?patch ?ub t] solves the overlay whose rhs is the
    base rhs with each [(row, value)] of [patch] substituted, and whose
    upper bounds are the model's with each [(column, value)] of [ub]
    substituted (later entries win in both), then audits an [Optimal]
    answer against the same patched arrays. Rows are numbered as in
    the model; an entry for a row the solved LP left out changes only
    what the audit checks. [?warm] is typically the base problem's
    optimal basis.

    The audit is {!Certify.check_compiled} on the whole model compiled
    at {!prepare}, rows the solved LP left out included, at the default
    certification tolerances with integrality not checked (an overlay
    solves the LP relaxation). It bumps the certify-checks/failures
    counters and never raises on a failed check.
    @raise Invalid_argument on an out-of-range patch row or column. *)
val solve :
  ?warm:Simplex.basis ->
  ?patch:(int * float) list ->
  ?ub:(int * float) list ->
  t ->
  outcome
