(* The limits of the branch-and-bound search on the 64 random MILPs the
   revised-simplex differential uses: a node whose LP exhausts the
   per-LP pivot budget drops its subtree without a false claim, the
   node budget is never overshot, an expired time limit returns the
   incumbent in hand, and the options of the removed parallel rounds
   and primal heuristics change nothing. *)

let solve_corpus ?(options = Milp.Branch_bound.default) ?sx_iters
    ?(max_nodes = Milp.Branch_bound.default.max_nodes) ?(cuts = Milp.Cuts.default)
    ?(branching = Milp.Branch_bound.Reliability) () =
  Array.init 64 (fun case ->
      let mdl = Test_revised.random_milp case in
      let options = { options with sx_iters; max_nodes; cuts; branching } in
      Milp.Branch_bound.solve ~options mdl)

let bits = Int64.bits_of_float

(* Throttle every LP to a tiny pivot budget so subtrees get dropped,
   and require (a) drops actually happen and (b) a solve that dropped a
   subtree never claims Optimal or Infeasible. *)
let test_iter_limit_degrades_claim branching () =
  let results = solve_corpus ~sx_iters:5 ~branching () in
  let dropped =
    Array.fold_left
      (fun acc (r : Milp.Branch_bound.t) -> acc + r.stats.Milp.Branch_bound.dropped)
      0 results
  in
  Alcotest.(check bool) "iteration budget dropped subtrees" true (dropped > 0);
  Array.iteri
    (fun case (r : Milp.Branch_bound.t) ->
      if r.stats.Milp.Branch_bound.dropped > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "case %d: dropped subtree degrades the claim" case)
          true
          (r.outcome <> Milp.Branch_bound.Optimal
          && r.outcome <> Milp.Branch_bound.Infeasible))
    results

(* [max_nodes] bounds the node LPs a solve runs, and a budget that cut
   the search short leaves an honest claim: Optimal only when the
   budget-free solve proves the same objective. Root cuts solve most of
   the corpus at the root, so they are off here: the largest tree then
   takes 22 nodes, and each budget stops some solve. *)
let test_node_budget () =
  let cuts = Milp.Cuts.disabled in
  let free = solve_corpus ~cuts () in
  List.iter
    (fun max_nodes ->
      let capped = solve_corpus ~max_nodes ~cuts () in
      let bound_hit = ref false in
      Array.iteri
        (fun case (r : Milp.Branch_bound.t) ->
          let nodes = r.stats.Milp.Branch_bound.nodes in
          if nodes > max_nodes then
            Alcotest.failf "max_nodes=%d case %d: %d nodes" max_nodes case nodes;
          if nodes = max_nodes && free.(case).stats.Milp.Branch_bound.nodes > max_nodes
          then bound_hit := true;
          if r.outcome = Milp.Branch_bound.Optimal then
            Alcotest.(check (float (1e-6 *. (1. +. Float.abs free.(case).obj))))
              (Printf.sprintf "max_nodes=%d case %d: optimal objective" max_nodes case)
              free.(case).obj r.obj)
        capped;
      Alcotest.(check bool)
        (Printf.sprintf "max_nodes=%d stops some corpus solve" max_nodes)
        true !bound_hit)
    [ 1; 5; 17 ]

(* A time limit already spent when the search starts solves no node:
   the solve returns the warm-start incumbent (the budget-free optimum)
   as [Feasible], bit for bit, with the root's unbounded key as its
   bound, and without one claims nothing. This is the timeout behaviour
   the clustered analysis relies on when a wave's budget runs out. *)
let test_expired_time_limit () =
  let free = solve_corpus () in
  let kept = ref 0 in
  Array.iteri
    (fun case (f : Milp.Branch_bound.t) ->
      let warm_start =
        match f.outcome with
        | Milp.Branch_bound.Optimal -> Some f.values
        | _ -> None
      in
      let options = { Milp.Branch_bound.default with time_limit = -1.; warm_start } in
      let r = Milp.Branch_bound.solve ~options (Test_revised.random_milp case) in
      let tag what = Printf.sprintf "case %d: %s" case what in
      Alcotest.(check int) (tag "no node solved") 0 r.stats.Milp.Branch_bound.nodes;
      Alcotest.(check bool) (tag "bound is the root key") true (r.bound = Float.infinity);
      match warm_start with
      | Some _ ->
        Alcotest.(check bool) (tag "incumbent kept") true
          (r.outcome = Milp.Branch_bound.Feasible);
        Alcotest.(check int64) (tag "incumbent objective") (bits f.obj) (bits r.obj);
        incr kept
      | None ->
        Alcotest.(check bool) (tag "no claim") true
          (r.outcome = Milp.Branch_bound.No_incumbent))
    free;
  Alcotest.(check bool) (Printf.sprintf "most solves keep an incumbent (%d of 64)" !kept)
    true (!kept >= 32)

(* [pool], [par_width] and [par_grain] configured the parallel subtree
   rounds the search no longer has, [heuristics] and [rins_freq] the
   feasibility pump and RINS: setting them to force rounds on these
   small trees, to switch the pump off and to run RINS at every node
   changes no outcome, bit, node count or pivot count under either
   branching rule, and no solve reports a round. *)
let test_parallel_options_ignored () =
  let rounds0 = Milp.Branch_bound.cumulative_rounds () in
  let parallel =
    {
      Milp.Branch_bound.default with
      pool = Some ();
      par_width = 2;
      par_grain = 4;
      heuristics = false;
      rins_freq = 1;
    }
  in
  List.iter
    (fun (name, branching) ->
      let reference = solve_corpus ~branching () in
      let set = solve_corpus ~options:parallel ~branching () in
      Array.iteri
        (fun case (r : Milp.Branch_bound.t) ->
          let s = set.(case) in
          let tag what = Printf.sprintf "%s case %d: %s" name case what in
          Alcotest.(check bool) (tag "outcome") true (r.outcome = s.outcome);
          Alcotest.(check int64) (tag "obj") (bits r.obj) (bits s.obj);
          Alcotest.(check int64) (tag "bound") (bits r.bound) (bits s.bound);
          Alcotest.(check (array int64)) (tag "values")
            (Array.map bits r.values) (Array.map bits s.values);
          Alcotest.(check int) (tag "nodes") r.stats.Milp.Branch_bound.nodes
            s.stats.Milp.Branch_bound.nodes;
          Alcotest.(check int) (tag "simplex iters") r.stats.simplex_iters
            s.stats.simplex_iters;
          Alcotest.(check int) (tag "dropped") r.stats.dropped s.stats.dropped)
        reference)
    [ ("reliability", Milp.Branch_bound.Reliability);
      ("fractional", Milp.Branch_bound.Fractional) ];
  Alcotest.(check int) "no rounds" rounds0 (Milp.Branch_bound.cumulative_rounds ());
  Alcotest.(check int) "cumulative rounds" 0 rounds0

let suite =
  [
    ("iter-limit degrades the claim", `Quick,
      test_iter_limit_degrades_claim Milp.Branch_bound.Reliability);
    ("iter-limit degrades the claim (fractional)", `Quick,
      test_iter_limit_degrades_claim Milp.Branch_bound.Fractional);
    ("node budget never overshot", `Quick, test_node_budget);
    ("expired time limit keeps the incumbent", `Quick, test_expired_time_limit);
    ("parallel options ignored", `Quick, test_parallel_options_ignored);
  ]
