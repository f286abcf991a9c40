(** Mapping between a presolve-reduced model and its original.

    {!Presolve} fixes variables and renumbers the survivors densely; this
    module carries that mapping so reduced-space solutions can be lifted
    back to the original indexing (making the reduction invisible to
    {!Solver} callers) and original-space warm starts / plunge hints /
    branch priorities can be pushed forward into the reduced space. All
    reductions performed by {!Presolve} are primal-feasibility preserving,
    so postsolve is pure index-and-value translation: objective and dual
    bound need no correction (the fixed contribution lives in the reduced
    objective's constant term). *)

type t

(** [make ~is_fixed ~value] builds the mapping: [is_fixed.(j)] marks
    original variable [j] as fixed at [value.(j)]; the remaining
    variables keep their relative order in the reduced indexing. *)
val make : is_fixed:bool array -> value:float array -> t

(** Original id of reduced variable [rid]. *)
val orig_of_reduced : t -> int -> int

(** Reduced id of original variable [j], or [None] when it was fixed. *)
val reduced_of_orig : t -> int -> int option

(** Fixed value of original variable [j] ([None] when it survived). *)
val value_of_fixed : t -> int -> float option

(** [restore t reduced] lifts a reduced-space point to the original
    indexing, filling fixed variables with their presolved values.
    Arrays shorter than the reduced dimension (e.g. the empty point of
    an infeasible solution) are returned unchanged. *)
val restore : t -> float array -> float array

(** [restore_statuses t ~fill reduced] lifts any reduced-indexed
    per-variable annotation array (e.g. {!Simplex.vstat} basis statuses)
    to the original indexing; fixed variables get [fill] (a fixed
    variable sits at its — collapsed — bounds, so a bound status is the
    natural fill). Arrays shorter than the reduced dimension are
    returned unchanged, mirroring {!restore}. *)
val restore_statuses : t -> fill:'a -> 'a array -> 'a array

(** Project an original-space point into the reduced space by dropping
    the fixed coordinates; [None] when the array is too short. *)
val reduce_point : t -> float array -> float array option

(** Translate a partial assignment [(var id, value)] into reduced ids.
    Entries on fixed or out-of-range variables are dropped: either they
    are already enforced by the reduction, or they contradict a presolve
    deduction, in which case the surviving entries still make a useful
    plunge. *)
val reduce_hint : t -> (int * float) list -> (int * float) list
