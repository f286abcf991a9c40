(** Solver-independent description of a TE linear program.

    The same specification serves two consumers:
    - {!Te.Simulate} instantiates it as a standalone LP (all right-hand
      sides constant) to route traffic directly — the oracle/baseline
      path;
    - [Raha.Inner] embeds it as the {e inner} problem of the bi-level
      MILP, where right-hand sides may be affine expressions over the
      {e outer} model's variables (variable LAG capacities, demands, path
      extension capacities — §5 of the paper).

    Rows are normalized to [<=] or [=]; columns are nonnegative. Each row
    carries a bound on its slack and the spec carries a bound on optimal
    dual magnitudes — these become the big-M constants of the KKT
    complementary-slackness linearization, so they must be valid but
    should be tight. *)

type rel = Le | Eq

type rhs =
  | Const of float
  | Outer of Milp.Linexpr.t
      (** affine in the outer model's variables; treated as a constant by
          the inner problem (the blue variables of Table 2) *)

type col = {
  cname : string;
  obj : float;  (** objective coefficient *)
  ub_hint : float;
      (** valid upper bound on the column's value at optimal points
          (columns are nonnegative); a KKT big-M constant *)
}

type row = {
  rname : string;
  terms : (int * float) list;  (** (column index, coefficient) *)
  rel : rel;
  rhs : rhs;
  slack_bound : float;  (** valid upper bound on [rhs - lhs] at feasible points *)
}

type sense = Max | Min

type t = {
  sense : sense;
  cols : col array;
  rows : row array;
  dual_bound : float;
      (** some optimal dual solution has all multipliers within
          [[-dual_bound, dual_bound]] *)
}

(** A right-hand side as an expression: [Const c] is the constant [c]. *)
val rhs_expr : rhs -> Milp.Linexpr.t

(** [row_lhs vars r] is row [r]'s left-hand side over the column
    variables [vars]. *)
val row_lhs : Milp.Model.var array -> row -> Milp.Linexpr.t

(** [embed ?prefix m t] adds [t]'s columns (continuous, nonnegative) and
    rows to [m]: each row [row_lhs vars r rel rhs_expr r.rhs], through
    [Milp.Model.add_cons_expr], which for a constant rhs builds the same
    constraint as [Milp.Model.add_cons] (a zero rhs comes out as [+0]).
    Returns the column variables and the objective expression in [t]'s
    own sense. With [prefix], column [c] is named [prefix_c] and row [i]
    [prefix_pr<i>_<name>]; without, both keep their spec names. *)
val embed : ?prefix:string -> Milp.Model.t -> t -> Milp.Model.var array * Milp.Linexpr.t

(** [to_model ?ub t] builds a standalone {!Milp.Model} as {!embed}
    does, column [i] bounded above by [ub.(i)] when [ub] is given.
    Returns the model and the column variables.
    @raise Invalid_argument on an [Outer] right-hand side or an [ub] of
    another length than the columns. *)
val to_model : ?ub:float array -> t -> Milp.Model.t * Milp.Model.var array

(** [solve t] solves the standalone LP. *)
val solve : t -> [ `Optimal of float * float array | `Infeasible | `Unbounded ]
