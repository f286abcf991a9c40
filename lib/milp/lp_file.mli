(** CPLEX-LP-format export and import of models.

    Lets any encoding be inspected or cross-checked with an external
    solver (the role Gurobi's model dumps play in the paper's workflow).
    Only the subset needed for these models is emitted: objective, linear
    constraints, bounds, binaries and generals. *)

val to_string : Model.t -> string

val write : Model.t -> string -> unit

exception Parse_error of string

val of_string : string -> Model.t
(** Parse a model from the LP subset emitted by {!to_string}: an
    objective section ([Maximize]/[Minimize], optionally with a bare
    constant term), [Subject To] rows with optional labels, [Bounds]
    lines (including [free] and two-sided ranges), [Binaries] and
    [Generals]. The writer's canonical [x<id>] names keep their variable
    ids when they are dense (the ids of the [n] distinct names are
    exactly [0 .. n-1], as in every {!to_string} output), so
    [of_string (to_string m)] reproduces [m]'s indexing exactly; other
    naming schemes, sparse canonical ids included, get ids in order of
    first appearance.

    @raise Parse_error on input outside the supported subset, including
    contradictory bounds ([lb > ub]) and a NaN coefficient, right-hand
    side or bound. *)

val read : string -> Model.t
(** [read path] parses the LP file at [path] with {!of_string}. *)
