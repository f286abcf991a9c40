(** Batched scenario solves: one {!Simplex.prepare}, many cheap
    right-hand-side overlays (DESIGN.md §12).

    Scenario-heavy workloads (Monte Carlo sampling, failure
    enumeration, sweep grids) solve near-identical LPs that differ only
    in a few row right-hand sides — link capacities and path
    availability caps. A {!t} pays the CSC build and symbolic
    factorization work once; {!solve} then patches the rhs vector and
    re-solves through [Simplex.solve_prepared ?b ?warm]. Because duals
    and reduced costs never depend on the rhs, an optimal basis of the
    base problem stays dual feasible for {e every} overlay, so
    warm-started solves finish in a handful of dual pivots (with the
    cold-primal fallback on numerical trouble built into the simplex
    driver).

    A [t] is immutable and safe to share read-only across domains:
    every {!solve} works on fresh copies, and its pivot sequence
    depends only on (structure, bounds, patched rhs, warm basis) — the
    determinism that keeps batched sweeps bit-identical across batch
    sizes and domain counts. *)

type t

(** Result of one overlay solve. [warm_hit] is true when the
    dual-simplex warm attempt finished the solve (no cold fallback). *)
type outcome = {
  result : Simplex.result;
  basis : Simplex.basis option;
  warm_hit : bool;
}

(** [prepare model] builds the shared structure ([Simplex.prepare] +
    a private copy of the base rhs). Bumps the batch-prepares
    counter. *)
val prepare : Model.t -> t

(** The underlying prepared model (shared, do not mutate). *)
val prep : t -> Simplex.prepared

(** Fresh copy of the base rhs (row order = model constraint order). *)
val base_rhs : t -> float array

(** [solve ?warm ?patch t] solves the overlay whose rhs is the base rhs
    with each [(row, value)] of [patch] substituted (later entries win).
    [?warm] is typically the base problem's optimal basis. Other
    optionals forward to {!Simplex.solve_prepared}.
    @raise Invalid_argument on an out-of-range patch row. *)
val solve :
  ?lb:float array ->
  ?ub:float array ->
  ?max_iters:int ->
  ?degen_limit:int ->
  ?warm:Simplex.basis ->
  ?patch:(int * float) list ->
  t ->
  outcome

(** [check ?patch ~obj ~values t] independently re-validates a claimed
    overlay optimum against the original model rows with the patched
    rhs substituted: variable bounds, row senses (Kahan-compensated
    activities, scaled tolerances), and the recomputed objective.
    Bumps the certify-checks/failures counters. [Error] carries a
    human-readable description of every violated check. *)
val check :
  ?patch:(int * float) list ->
  obj:float ->
  values:float array ->
  t ->
  (unit, string) result
