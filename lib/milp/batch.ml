(* Batched scenario solves over one prepared model.

   One Simplex.prepare pays for the CSC standard form and the symbolic
   side of the LU work; every scenario is then a numeric overlay — a
   sparse patch of the row right-hand sides and of the column upper
   bounds — solved through Simplex.solve_prepared ?b ?ub ?warm. Neither
   moves the duals or the reduced costs of a basis: an optimal basis of
   the base problem (typically the healthy network) stays dual feasible
   under an rhs overlay, and under a bound overlay a nonbasic column
   whose range the overlay widened may rest at a bound its reduced cost
   does not suit, which the warm path repairs by flipping the column to
   its other bound when that bound is finite. The dual simplex then
   repairs primal feasibility in a few pivots; numerical trouble on the
   warm path, or a column no flip repairs, falls back to the cold primal
   inside solve_prepared itself.

   The solved LP may leave out rows the caller proves redundant under
   every overlay it will solve (prepare ?keep). Patches stay in the
   model's row numbering: [solve] patches the whole model's rhs and
   bounds once, hands the simplex the kept rows and audits the answer
   against the same whole arrays, so an entry for a dropped row reaches
   only the audit and a row dropped wrongly shows as a failed check.

   Thread-safety / determinism: a [t] is immutable after [prepare] and
   may be shared read-only across domains — each [solve] call builds
   fresh rhs and bound copies and a fresh solver state, and
   [Basis.create] copies the warm basis' column selection, so concurrent
   overlay solves never alias mutable state. A solve's pivot sequence
   depends only on (structure, patched bounds, patched rhs, warm basis),
   never on what other overlays ran before or beside it, which is what
   makes batched sweeps bit-identical across batch sizes and domain
   counts. *)

type t = {
  prep : Simplex.prepared; (* the solved LP: the kept rows *)
  kept : int array; (* per solved row, its model row *)
  base_b : float array; (* the model's rhs, every row *)
  base_ub : float array; (* the model's upper bounds, length nv *)
  whole : Certify.compiled; (* the whole model, dropped rows included *)
}

type outcome = {
  result : Simplex.result;
  basis : Simplex.basis option;
  warm_hit : bool;
  audit : (unit, string) result option;
}

(* [model] with only the rows [keep] accepts; variable ids, bounds and
   the objective are the model's, so a point of one is a point of the
   other *)
let restrict model keep =
  let sub = Model.create ~name:(Model.name model) () in
  Array.iter
    (fun (v : Model.var) ->
      ignore (Model.add_var sub ~name:v.Model.vname ~kind:v.Model.kind ~lb:v.Model.lb ~ub:v.Model.ub))
    (Model.vars model);
  Array.iteri
    (fun i (c : Model.cons) ->
      if keep i then Model.add_cons sub ~name:c.Model.cname c.Model.lhs c.Model.rel c.Model.rhs)
    (Model.conss model);
  let sense, obj = Model.objective model in
  Model.set_objective sub sense obj;
  sub

let prepare ?keep model =
  let rows = Seq.init (Model.num_cons model) Fun.id in
  let solved, kept =
    match keep with
    | None -> (model, Array.of_seq rows)
    | Some keep -> (restrict model keep, Array.of_seq (Seq.filter keep rows))
  in
  let prep = Simplex.prepare solved in
  Lp_stats.incr Lp_stats.batch_prepares;
  {
    prep;
    kept;
    base_b = Array.map (fun (c : Model.cons) -> c.Model.rhs) (Model.conss model);
    base_ub = snd (Model.bounds model);
    whole = Certify.compile model;
  }

let prep t = t.prep
let base_rhs t = Array.copy t.base_b
let rows t = (Array.length t.kept, Array.length t.base_b)

(* [base] with each [(i, v)] of [patch] substituted, in a fresh copy *)
let overlay base patch ~what =
  let a = Array.copy base in
  List.iter
    (fun (i, v) ->
      if i < 0 || i >= Array.length a then invalid_arg ("Batch: patch " ^ what ^ " out of range");
      a.(i) <- v)
    patch;
  a

(* The independent audit of an overlay's claimed optimum: the
   certifier's point check against the whole model, the rows the solve
   left out included, with the patched rhs and upper bounds
   substituted, at the default certification tolerances (integrality
   aside: an overlay solves the LP relaxation). Purely from model data
   and the patch — none of the solver's internal state is trusted, so a
   column the overlay closes (upper bound 0) is audited to carry
   nothing, and a dropped row the answer violates fails the audit.
   Bumps the certify counters so batched sweeps show up in the same
   audit accounting as certified MILP solves. *)
let tols = { Certify.default_tolerances with Certify.int_tol = infinity }

let solve ?warm ?(patch = []) ?(ub = []) t =
  (* the patch is in model rows; a dropped row's entry reaches only the
     audit *)
  let rhs = overlay t.base_b patch ~what:"row" in
  let ub = overlay t.base_ub ub ~what:"column" in
  let b = Array.create_float (Array.length t.kept) in
  for i = 0 to Array.length b - 1 do
    b.(i) <- rhs.(t.kept.(i))
  done;
  Lp_stats.incr Lp_stats.batch_overlays;
  (* [solve_prepared] bumps warm_hits exactly when the dual-simplex warm
     attempt finished the solve; diffing the domain-local counter around
     the call attributes the hit to this overlay without racing other
     domains. *)
  let wh0 = Lp_stats.read Lp_stats.warm_hits () in
  let result, basis = Simplex.solve_prepared ~b ~ub ?warm t.prep in
  let warm_hit = Lp_stats.read Lp_stats.warm_hits () > wh0 in
  if warm_hit then Lp_stats.incr Lp_stats.batch_warm_hits;
  let audit =
    match result with
    | Simplex.Optimal { obj; values } -> (
      Lp_stats.incr Lp_stats.certify_checks;
      match (Certify.check_compiled ~rhs ~ub ~obj ~tols t.whole values).Certify.failure with
      | None -> Some (Ok ())
      | Some reason ->
        Lp_stats.incr Lp_stats.certify_failures;
        Some (Error reason))
    | _ -> None
  in
  { result; basis; warm_hit; audit }
