(* Determinism contract of the parallel branch-and-bound (PR 8): for a
   fixed model the outcome, objective, bound, incumbent point, node
   count, simplex-iteration count and dropped-subtree accounting must be
   bit-identical whatever the pool width — including no pool at all.
   The corpus is the same 64 random MILPs the revised-simplex
   differential uses; [par_width = 2] and [par_grain = 4] force the
   round scheduler to engage even on these small trees. *)

let check_int = Alcotest.(check int)

let bits f = Int64.bits_of_float f

let check_bits what a b =
  if bits a <> bits b then
    Alcotest.failf "%s: %.17g <> %.17g (not bit-identical)" what a b

(* Solve the whole corpus under one pool configuration. *)
let solve_corpus ?sx_iters ?(branching = Milp.Branch_bound.Reliability) pool =
  Array.init 64 (fun case ->
      let mdl = Test_revised.random_milp case in
      let options =
        {
          Milp.Branch_bound.default with
          pool;
          par_width = 2;
          par_grain = 4;
          sx_iters;
          (* explicit, not just the default: the bit-identity contract
             must hold with the pseudocost machinery (frozen per-round
             tables, frontier-order merge) engaged, and for the
             most-fractional pick the round tasks make under
             [Fractional] *)
          branching;
        }
      in
      Milp.Branch_bound.solve ~options mdl)

let check_identical ~what (a : Milp.Branch_bound.t array)
    (b : Milp.Branch_bound.t array) =
  Array.iteri
    (fun case (r : Milp.Branch_bound.t) ->
      let s = b.(case) in
      let tag fmt = Printf.sprintf "%s case %d %s" what case fmt in
      Alcotest.(check bool) (tag "outcome") true (r.outcome = s.outcome);
      check_bits (tag "obj") r.Milp.Branch_bound.obj s.Milp.Branch_bound.obj;
      check_bits (tag "bound") r.bound s.bound;
      check_int (tag "values length") (Array.length r.values) (Array.length s.values);
      Array.iteri
        (fun i v -> check_bits (tag (Printf.sprintf "values.(%d)" i)) v s.values.(i))
        r.values;
      check_int (tag "nodes") r.stats.Milp.Branch_bound.nodes
        s.stats.Milp.Branch_bound.nodes;
      check_int (tag "simplex iters") r.stats.simplex_iters s.stats.simplex_iters;
      check_int (tag "rounds") r.stats.rounds s.stats.rounds;
      check_int (tag "dropped") r.stats.dropped s.stats.dropped;
      check_bits (tag "dropped key") r.stats.dropped_key s.stats.dropped_key)
    a

let with_pool domains f =
  Parallel.Pool.with_pool ~domains f

let test_corpus_identical_across_widths () =
  List.iter
    (fun (name, branching) ->
      let reference = solve_corpus ~branching None in
      (* the scheduler must actually have engaged, or this test proves
         nothing about the parallel rounds *)
      let rounds =
        Array.fold_left
          (fun acc (r : Milp.Branch_bound.t) -> acc + r.stats.Milp.Branch_bound.rounds)
          0 reference
      in
      Alcotest.(check bool)
        (name ^ ": parallel rounds engaged on the corpus")
        true (rounds > 0);
      List.iter
        (fun domains ->
          let par = with_pool domains (fun pool -> solve_corpus ~branching (Some pool)) in
          check_identical
            ~what:(Printf.sprintf "%s pool=%d vs none" name domains)
            reference par)
        [ 1; 2; 4 ])
    [ ("reliability", Milp.Branch_bound.Reliability);
      ("fractional", Milp.Branch_bound.Fractional) ]

(* PR 4's honest degradation must survive stealing: throttle every LP to
   a tiny pivot budget so subtrees get dropped mid-round, and require
   (a) drops actually happen, (b) a solve that dropped a subtree never
   claims Optimal or Infeasible, and (c) the degraded results — dropped
   counts and the folded bound keys included — stay bit-identical across
   pool widths. *)
let test_iter_limit_identical_across_widths () =
  let sx_iters = Some 5 in
  let reference = solve_corpus ?sx_iters None in
  let dropped =
    Array.fold_left
      (fun acc (r : Milp.Branch_bound.t) -> acc + r.stats.Milp.Branch_bound.dropped)
      0 reference
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
    reference;
  List.iter
    (fun domains ->
      let par = with_pool domains (fun pool -> solve_corpus ?sx_iters (Some pool)) in
      check_identical
        ~what:(Printf.sprintf "iter-limit pool=%d vs none" domains)
        reference par)
    [ 2; 4 ]

(* --- the full bilevel stack across domain counts ----------------------- *)

let fig1 = Wan.Generators.fig1 ()

let fig1_paths () =
  Netpath.Path_set.compute ~n_primary:2 ~n_backup:0 fig1 [ (1, 3); (2, 3) ]

let fig1_envelope () =
  Traffic.Envelope.around ~slack:0.5
    (Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ])

let spec_k1 =
  {
    Raha.Bilevel.default_spec with
    Raha.Bilevel.max_failures = Some 1;
    encoding = Raha.Bilevel.Strong_duality { levels = 5 };
  }

let test_analysis_identical_across_domains () =
  let run domains =
    let options = { Raha.Analysis.default_options with spec = spec_k1; domains } in
    Raha.Analysis.analyze ~options fig1 (fig1_paths ()) (fig1_envelope ())
  in
  let seq = run 1 in
  Alcotest.(check bool) "sequential run solved" true
    (seq.Raha.Analysis.status = Milp.Solver.Optimal);
  List.iter
    (fun domains ->
      let par = run domains in
      let tag fmt = Printf.sprintf "domains=%d %s" domains fmt in
      Alcotest.(check bool) (tag "status") true
        (par.Raha.Analysis.status = seq.Raha.Analysis.status);
      check_bits (tag "degradation") seq.Raha.Analysis.degradation
        par.Raha.Analysis.degradation;
      check_bits (tag "bound") seq.Raha.Analysis.bound par.Raha.Analysis.bound;
      check_int (tag "nodes") seq.Raha.Analysis.nodes par.Raha.Analysis.nodes;
      Alcotest.(check bool) (tag "scenario") true
        (Failure.Scenario.equal seq.Raha.Analysis.scenario
           par.Raha.Analysis.scenario);
      Alcotest.(check bool) (tag "worst demand") true
        (Traffic.Demand.entries seq.Raha.Analysis.worst_demand
        = Traffic.Demand.entries par.Raha.Analysis.worst_demand))
    [ 2; 4 ]

(* --- cluster waves ------------------------------------------------------ *)

let test_wave_budget () =
  let check_budget what expected got = Alcotest.(check (float 0.)) what expected got in
  check_budget "even split" 20. (Raha.Cluster.wave_budget ~remaining:100. ~solves_left:5);
  (* a fast early wave leaves its unused share to the remaining solves *)
  check_budget "redistribution" 30. (Raha.Cluster.wave_budget ~remaining:90. ~solves_left:3);
  check_budget "infinity passes through" Float.infinity
    (Raha.Cluster.wave_budget ~remaining:Float.infinity ~solves_left:4);
  check_budget "clamps at zero" 0. (Raha.Cluster.wave_budget ~remaining:(-1.) ~solves_left:2);
  check_budget "last solve takes everything" 7.5
    (Raha.Cluster.wave_budget ~remaining:7.5 ~solves_left:1);
  check_budget "solves_left floor" 7.5
    (Raha.Cluster.wave_budget ~remaining:7.5 ~solves_left:0)

let test_cluster_identical_across_domains () =
  let run domains =
    let options = { Raha.Analysis.default_options with spec = spec_k1; domains } in
    Raha.Cluster.analyze ~options ~clusters:2 fig1 (fig1_paths ()) (fig1_envelope ())
  in
  let seq = run 1 in
  Alcotest.(check bool) "sequential run solved" true
    (seq.Raha.Cluster.report.Raha.Analysis.status = Milp.Solver.Optimal);
  List.iter
    (fun domains ->
      let par = run domains in
      let tag fmt = Printf.sprintf "domains=%d %s" domains fmt in
      check_bits (tag "degradation")
        seq.Raha.Cluster.report.Raha.Analysis.degradation
        par.Raha.Cluster.report.Raha.Analysis.degradation;
      check_int (tag "block solves") seq.Raha.Cluster.block_solves
        par.Raha.Cluster.block_solves;
      Alcotest.(check bool) (tag "assembled demand") true
        (Traffic.Demand.entries seq.Raha.Cluster.demand
        = Traffic.Demand.entries par.Raha.Cluster.demand);
      check_int (tag "wave count")
        (List.length seq.Raha.Cluster.wave_budgets)
        (List.length par.Raha.Cluster.wave_budgets))
    [ 2; 4 ]

let test_cluster_first_wave_budget () =
  (* with an untouched budget the first wave's share is exactly
     time_limit / n_solves — the redistribution baseline *)
  let options =
    {
      Raha.Analysis.default_options with
      spec = spec_k1;
      time_limit = 100_000.;
    }
  in
  let r =
    Raha.Cluster.analyze ~options ~clusters:2 fig1 (fig1_paths ()) (fig1_envelope ())
  in
  match r.Raha.Cluster.wave_budgets with
  | [] -> Alcotest.fail "no wave budgets recorded"
  | first :: _ ->
    Alcotest.(check (float 0.))
      "first wave budget = time_limit / n_solves"
      (100_000. /. float_of_int r.Raha.Cluster.block_solves)
      first

let suite =
  [
    ("corpus identical across pool widths", `Quick, test_corpus_identical_across_widths);
    ("iter-limit degradation survives stealing", `Quick, test_iter_limit_identical_across_widths);
    ("bilevel analysis identical across domains", `Quick, test_analysis_identical_across_domains);
    ("wave budget redistribution", `Quick, test_wave_budget);
    ("cluster identical across domains", `Quick, test_cluster_identical_across_domains);
    ("cluster first wave budget", `Quick, test_cluster_first_wave_budget);
  ]
