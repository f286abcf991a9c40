(** MILP presolve: an iterated fixpoint of primal reductions over a
    {!Model}, run by {!Solver.solve} before branch-and-bound.

    Reductions, in fixpoint order per pass: infeasible/redundant row
    detection from activity bounds, singleton-row-to-bound conversion,
    forcing-row variable fixing, coefficient (big-M) tightening on
    inequality rows with binaries, and bound propagation; plus, after the
    fixpoint, probing on binary variables (set each to 0 and to 1,
    propagate, and harvest fixings and implied bounds from the branches —
    the Raha link-failure binaries [u_e_l] carry the lowest ids, so they
    are probed first).

    Each probe branch propagates as a worklist: a round (in row order,
    at most 3 rounds) processes a row only when a bound of one of its
    variables was written since the row last ran in that branch, the
    row's own writes included, or when the row is untouched in the
    branch and not yet known to be quiet. A row is quiet when
    processing it against the global bounds writes nothing; that is
    learned the first time it runs untouched, and forgotten when
    probing moves a global bound of one of its variables. A skipped row
    would write nothing and raise nothing, so the result is bit for bit
    that of sweeping every row in every round.

    Big-M tightening is the reduction the bilevel encodings care about:
    the blanket implication constants emitted by {!Linearize} (and the
    KKT complementarity rows of [Raha.Inner]) appear as rows
    [e + M b <= ub] that are redundant in one branch of the binary; the
    coefficient and right-hand side are then brought down to the
    propagated activity bound of [e], exactly recomputing the minimal M.

    Every reduction preserves the set of feasible points over the
    surviving variables (no dual reductions are performed), so a reduced
    optimum maps back to an original optimum and the known optimum is
    never cut off. Fixed variables' objective contribution is moved into
    the reduced objective's constant term, which {!Simplex} evaluates, so
    objective values and dual bounds need no postsolve correction. *)

type stats = {
  passes : int;  (** fixpoint passes executed (across probing restarts) *)
  rows_removed : int;
  cols_fixed : int;
  bounds_tightened : int;
  big_ms_tightened : int;  (** coefficient-tightening applications *)
  probed : int;  (** binaries probed *)
  probe_fixed : int;  (** variables fixed as a result of probing *)
}

type result =
  | Reduced of { model : Model.t; post : Postsolve.t; stats : stats }
  | Infeasible of stats
      (** the reductions proved the model infeasible outright *)

(** [presolve model] runs the reductions and builds the reduced model.
    Each propagation phase runs at most 20 fixpoint passes, and at most
    512 binaries are probed. The input model is not modified. Adds the
    rows processed (by fixpoint passes and probe rounds) to the
    [presolve-ops] counter. *)
val presolve : Model.t -> result
