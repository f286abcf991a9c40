(* End-to-end validation of the bi-level analysis: the Fig. 1 worked
   example (all three scenarios, exact numbers from the paper) and
   cross-validation against the enumeration + simulation oracle. *)

let check_float ?(eps = 1e-5) what expected got =
  Alcotest.(check (float eps)) what expected got

let fig1 = Wan.Generators.fig1 ()

(* Figure 1 configures two usable paths per pair (both primaries: the
   healthy network routes all 22 units). *)
let fig1_paths () =
  Netpath.Path_set.compute ~n_primary:2 ~n_backup:0 fig1 [ (1, 3); (2, 3) ]

let analyze ?(spec = Raha.Bilevel.default_spec) ?(envelope_fixed = None) () =
  let paths = fig1_paths () in
  let envelope =
    match envelope_fixed with
    | Some d -> Traffic.Envelope.fixed d
    | None ->
      (* Fig. 1 middle/right: demands vary +/-50% around (12, 10) *)
      Traffic.Envelope.around ~slack:0.5
        (Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ])
  in
  let options = { Raha.Analysis.default_options with spec } in
  Raha.Analysis.analyze ~options fig1 paths envelope

let spec_k1 goal encoding =
  {
    Raha.Bilevel.default_spec with
    Raha.Bilevel.max_failures = Some 1;
    goal;
    encoding;
  }

let test_fig1_fixed_demand () =
  (* scenario (a): fixed (12, 10), worst single failure degrades by 7 *)
  let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let r =
    analyze
      ~spec:(spec_k1 Raha.Bilevel.Max_degradation (Raha.Bilevel.Strong_duality { levels = 5 }))
      ~envelope_fixed:(Some d) ()
  in
  Alcotest.(check bool) "optimal" true (r.Raha.Analysis.status = Milp.Solver.Optimal);
  check_float "degradation 7" 7. r.Raha.Analysis.degradation;
  check_float "healthy 22" 22. r.Raha.Analysis.healthy_performance;
  check_float "failed 15" 15. r.Raha.Analysis.failed_performance;
  Alcotest.(check int) "one failed link" 1 r.Raha.Analysis.num_failed_links

let test_fig1_naive_worst_case () =
  (* scenario (b): minimizing the FAILED network's performance alone picks
     small demands; the resulting degradation is only 1 *)
  let r =
    analyze ~spec:(spec_k1 Raha.Bilevel.Min_failed_performance (Raha.Bilevel.Strong_duality { levels = 5 })) ()
  in
  Alcotest.(check bool) "optimal" true (r.Raha.Analysis.status = Milp.Solver.Optimal);
  check_float "failed network carries 10" 10. r.Raha.Analysis.failed_performance;
  (* the degradation this naive analysis implies: healthy on the same
     demands minus failed *)
  let paths = fig1_paths () in
  let healthy =
    (Option.get (Te.Simulate.healthy fig1 paths r.Raha.Analysis.worst_demand))
      .Te.Simulate.performance
  in
  check_float "implied degradation only 1" 1. (healthy -. r.Raha.Analysis.failed_performance)

let test_fig1_raha_joint () =
  (* scenario (c): jointly optimizing demand and failure finds gap 9 *)
  let r =
    analyze ~spec:(spec_k1 Raha.Bilevel.Max_degradation (Raha.Bilevel.Strong_duality { levels = 5 })) ()
  in
  Alcotest.(check bool) "optimal" true (r.Raha.Analysis.status = Milp.Solver.Optimal);
  check_float "degradation 9" 9. r.Raha.Analysis.degradation;
  (* the worst failure is the AD link (lag 2) *)
  Alcotest.(check bool) "AD link failed" true
    (Failure.Scenario.is_down r.Raha.Analysis.scenario ~lag:2 ~link:0)

let test_fig1_kkt_matches () =
  (* the KKT encoding (continuous demands) finds the same optimum *)
  let r = analyze ~spec:(spec_k1 Raha.Bilevel.Max_degradation Raha.Bilevel.Kkt) () in
  Alcotest.(check bool) "optimal" true (r.Raha.Analysis.status = Milp.Solver.Optimal);
  check_float "degradation 9" 9. r.Raha.Analysis.degradation

(* Every solver field of Raha.Analysis.options reaches the solve: each
   override moves the counter of the layer it configures, so a dropped
   or swapped field in the options mapping fails here. Seeding is off
   in every arm so the screening overlays add no warm starts. *)
let test_options_reach_solver () =
  let spec = spec_k1 Raha.Bilevel.Max_degradation Raha.Bilevel.Kkt in
  let hooks =
    Milp.Solver.stats_counters @ [ ("bb-rounds", Milp.Branch_bound.cumulative_rounds) ]
  in
  let envelope =
    Traffic.Envelope.around ~slack:0.5
      (Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ])
  in
  let run override =
    let options =
      override { Raha.Analysis.default_options with spec; seed_enumeration = Some 0 }
    in
    let scope = Milp.Lp_stats.scope_enter ~hooks () in
    let r = Raha.Analysis.analyze ~options fig1 (fig1_paths ()) envelope in
    let counters = (Milp.Lp_stats.scope_exit scope).Milp.Lp_stats.scope_counters in
    (r.Raha.Analysis.degradation, fun name -> List.assoc name counters)
  in
  let base_deg, base = run Fun.id in
  let arm what override =
    let deg, c = run override in
    check_float ~eps:1e-6 (what ^ ": degradation") base_deg deg;
    c
  in
  let drops what counter override =
    let c = arm what override in
    Alcotest.(check bool) (what ^ ": " ^ counter ^ " on by default") true (base counter > 0);
    Alcotest.(check int) (what ^ ": " ^ counter) 0 (c counter)
  in
  drops "dense simplex" "warm-attempts" (fun o -> { o with Raha.Analysis.dense_simplex = true });
  drops "cuts off" "cuts-generated" (fun o -> { o with Raha.Analysis.cuts = Milp.Cuts.disabled });
  drops "fractional" "sb-probes" (fun o ->
      { o with Raha.Analysis.branching = Milp.Branch_bound.Fractional });
  Alcotest.(check int) "default: no rounds" 0 (base "bb-rounds");
  (* a swapped mapping would read bb_width = 2 as the grain and keep the
     default width: no rounds *)
  let w = (arm "bb_width" (fun o -> { o with Raha.Analysis.bb_width = 2 })) "bb-rounds" in
  Alcotest.(check bool) "bb_width = 2: rounds" true (w > 0);
  let wg =
    (arm "bb_width + bb_grain" (fun o -> { o with Raha.Analysis.bb_width = 2; bb_grain = 4 }))
      "bb-rounds"
  in
  Alcotest.(check bool) "bb_grain = 4: more rounds than the default grain" true (wg > w)

let test_fig1_verified_by_simulation () =
  (* whatever the MILP reports must replay exactly in the simulator *)
  let r = analyze ~spec:(spec_k1 Raha.Bilevel.Max_degradation (Raha.Bilevel.Strong_duality { levels = 5 })) () in
  let paths = fig1_paths () in
  let replay =
    Option.get
      (Te.Simulate.degradation fig1 paths r.Raha.Analysis.worst_demand
         r.Raha.Analysis.scenario)
  in
  check_float "replayed degradation matches" r.Raha.Analysis.degradation replay

(* --- oracle cross-validation on random small instances --------------- *)

let oracle_worst_fixed_demand topo paths d ~k =
  List.fold_left
    (fun acc s ->
      match Te.Simulate.degradation topo paths d s with
      | Some deg -> Float.max acc deg
      | None -> acc)
    0.
    (Failure.Enumerate.up_to_k topo ~k)

let prop_fixed_demand_matches_oracle =
  QCheck2.Test.make ~name:"bilevel fixed demand == enumeration oracle" ~count:12
    QCheck2.Gen.(
      let* seed = int_range 0 500 in
      let* k = int_range 1 2 in
      return (seed, k))
    (fun (seed, k) ->
      let topo = Wan.Generators.africa_like ~seed ~n:7 () in
      let rng = Random.State.make [| seed + 13 |] in
      let pairs = [ (0, 4); (1, 5) ] in
      let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 topo pairs in
      let d =
        Traffic.Demand.of_list
          (List.map (fun p -> (p, 20. +. Random.State.float rng 150.)) pairs)
      in
      let spec =
        {
          Raha.Bilevel.default_spec with
          Raha.Bilevel.max_failures = Some k;
          encoding = Raha.Bilevel.Strong_duality { levels = 3 };
        }
      in
      let options = { Raha.Analysis.default_options with spec } in
      let r = Raha.Analysis.analyze ~options topo paths (Traffic.Envelope.fixed d) in
      let oracle = oracle_worst_fixed_demand topo paths d ~k in
      r.Raha.Analysis.status = Milp.Solver.Optimal
      && Float.abs (r.Raha.Analysis.degradation -. oracle) < 1e-4)

let prop_variable_demand_beats_fixed =
  (* joint optimization over an envelope must dominate any fixed demand
     inside it *)
  QCheck2.Test.make ~name:"bilevel variable demand >= fixed demand oracle" ~count:8
    QCheck2.Gen.(int_range 0 300)
    (fun seed ->
      let topo = Wan.Generators.africa_like ~seed ~n:7 () in
      let pairs = [ (0, 4); (1, 5) ] in
      let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 topo pairs in
      let base = Traffic.Demand.of_list (List.map (fun p -> (p, 80.)) pairs) in
      let envelope = Traffic.Envelope.around ~slack:0.5 base in
      let spec =
        {
          Raha.Bilevel.default_spec with
          Raha.Bilevel.max_failures = Some 1;
          encoding = Raha.Bilevel.Strong_duality { levels = 3 };
        }
      in
      let options = { Raha.Analysis.default_options with spec } in
      let r = Raha.Analysis.analyze ~options topo paths envelope in
      (* oracle: only the envelope's grid corners for the same 3 levels *)
      let oracle = oracle_worst_fixed_demand topo paths base ~k:1 in
      r.Raha.Analysis.status = Milp.Solver.Optimal
      && r.Raha.Analysis.degradation +. 1e-4 >= oracle)

let test_threshold_constraint_respected () =
  (* with a strict threshold the returned scenario must qualify *)
  let paths = fig1_paths () in
  let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let spec =
    {
      Raha.Bilevel.default_spec with
      Raha.Bilevel.threshold = Some 1e-3;
      encoding = Raha.Bilevel.Strong_duality { levels = 3 };
    }
  in
  let options = { Raha.Analysis.default_options with spec } in
  let r = Raha.Analysis.analyze ~options fig1 paths (Traffic.Envelope.fixed d) in
  Alcotest.(check bool) "optimal" true (r.Raha.Analysis.status = Milp.Solver.Optimal);
  Alcotest.(check bool) "scenario qualifies" true (r.Raha.Analysis.scenario_prob >= 1e-3);
  (* fig1 links have p = 0.01: one failure ~ 0.0096 >= 1e-3, two < 1e-3 *)
  Alcotest.(check int) "single failure" 1 r.Raha.Analysis.num_failed_links

let test_threshold_excludes_all () =
  (* threshold above the all-up probability still admits the empty
     scenario only -> degradation 0 *)
  let paths = fig1_paths () in
  let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let spec =
    { Raha.Bilevel.default_spec with Raha.Bilevel.threshold = Some 0.9 }
  in
  let options = { Raha.Analysis.default_options with spec } in
  let r = Raha.Analysis.analyze ~options fig1 paths (Traffic.Envelope.fixed d) in
  Alcotest.(check bool) "optimal" true (r.Raha.Analysis.status = Milp.Solver.Optimal);
  check_float "no failures allowed" 0. r.Raha.Analysis.degradation

let test_connected_enforced () =
  (* CE forbids disconnecting a pair: with unconstrained failures (k = 5)
     the adversary would cut both of B's paths; CE keeps one alive *)
  let paths = fig1_paths () in
  let d = Traffic.Demand.of_list [ ((1, 3), 12.) ] in
  let mk ce =
    let spec =
      {
        Raha.Bilevel.default_spec with
        Raha.Bilevel.max_failures = Some 5;
        connected_enforced = ce;
        encoding = Raha.Bilevel.Strong_duality { levels = 3 };
      }
    in
    let options = { Raha.Analysis.default_options with spec } in
    Raha.Analysis.analyze ~options fig1 paths (Traffic.Envelope.fixed d)
  in
  let without = mk false and with_ce = mk true in
  check_float "without CE all 12 lost" 12. without.Raha.Analysis.degradation;
  Alcotest.(check bool) "CE keeps a path" true
    (with_ce.Raha.Analysis.degradation < 12. -. 1e-6);
  (* CE's worst case: kill the direct path (8 via backup min(5,9)=5 -> 7) *)
  check_float "CE degradation 7" 7. with_ce.Raha.Analysis.degradation

let test_naive_failover_analysis () =
  (* naive fail-over cannot do better than optimal fail-over, so its
     worst-case degradation is at least as large *)
  let paths = fig1_paths () in
  let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let mk naive =
    let spec =
      {
        Raha.Bilevel.default_spec with
        Raha.Bilevel.max_failures = Some 1;
        naive_failover = naive;
        encoding = Raha.Bilevel.Kkt;
      }
    in
    let options = { Raha.Analysis.default_options with spec } in
    Raha.Analysis.analyze ~options fig1 paths (Traffic.Envelope.fixed d)
  in
  let opt = mk false and naive = mk true in
  Alcotest.(check bool) "both optimal" true
    (opt.Raha.Analysis.status = Milp.Solver.Optimal
    && naive.Raha.Analysis.status = Milp.Solver.Optimal);
  Alcotest.(check bool) "naive >= optimal degradation" true
    (naive.Raha.Analysis.degradation +. 1e-6 >= opt.Raha.Analysis.degradation)

let test_mlu_bilevel () =
  (* MLU degradation on fig1 with fixed demand, single failures *)
  let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 fig1 [ (1, 3); (2, 3) ] in
  let d = Traffic.Demand.of_list [ ((1, 3), 4.); ((2, 3), 4.) ] in
  let spec =
    {
      Raha.Bilevel.default_spec with
      Raha.Bilevel.objective = Te.Formulation.Mlu { u_max = 10. };
      max_failures = Some 1;
      connected_enforced = true;
      encoding = Raha.Bilevel.Strong_duality { levels = 3 };
    }
  in
  let options = { Raha.Analysis.default_options with spec } in
  let r = Raha.Analysis.analyze ~options fig1 paths (Traffic.Envelope.fixed d) in
  Alcotest.(check bool) "optimal" true (r.Raha.Analysis.status = Milp.Solver.Optimal);
  (* oracle: worst single-failure MLU degradation via simulation *)
  let oracle =
    List.fold_left
      (fun acc s ->
        match
          Te.Simulate.degradation ~objective:(Te.Formulation.Mlu { u_max = 10. }) fig1
            paths d s
        with
        | Some deg -> Float.max acc deg
        | None -> acc)
      0.
      (Failure.Enumerate.up_to_k fig1 ~k:1)
  in
  check_float "matches oracle" oracle r.Raha.Analysis.degradation

let test_srlg_coupling () =
  (* BD and CD share a conduit: failing one fails both; with k = 1 the
     adversary can no longer afford the pair, with k = 2 it can *)
  let paths = fig1_paths () in
  let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let srlg = Failure.Srlg.make ~name:"conduit" ~prob:0.01 [ (0, 0); (1, 0) ] in
  let mk k =
    let spec =
      {
        Raha.Bilevel.default_spec with
        Raha.Bilevel.max_failures = Some k;
        srlgs = [ srlg ];
        encoding = Raha.Bilevel.Strong_duality { levels = 3 };
      }
    in
    let options = { Raha.Analysis.default_options with spec } in
    Raha.Analysis.analyze ~options fig1 paths (Traffic.Envelope.fixed d)
  in
  let r1 = mk 1 and r2 = mk 2 in
  (* k=1: BD/CD are off the table (they come as a pair), worst is AD: 6 *)
  check_float "k=1 avoids the coupled pair" 6. r1.Raha.Analysis.degradation;
  (* k=2: both BD and CD fail together: healthy 22, failed min(12,5&9)+min(10,4) = 9 -> 13 *)
  check_float "k=2 takes both" 13. r2.Raha.Analysis.degradation

(* The cover and clique cuts branch-and-bound separates at the root of
   the bilevel model are valid: each one cuts off the LP optimum it was
   separated at and holds at the MILP optimum. *)
let test_root_cuts_valid () =
  let spec = spec_k1 Raha.Bilevel.Max_degradation (Raha.Bilevel.Strong_duality { levels = 5 }) in
  let envelope =
    Traffic.Envelope.around ~slack:0.5
      (Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ])
  in
  let model = (Raha.Bilevel.build spec fig1 (fig1_paths ()) envelope).Raha.Bilevel.model in
  let point =
    match Milp.Simplex.solve model with
    | Milp.Simplex.Optimal { values; _ } -> values
    | _ -> Alcotest.fail "LP relaxation not optimal"
  in
  let pool = Milp.Cuts.create model in
  let rows =
    Array.map
      (fun (c : Milp.Model.cons) -> (c.Milp.Model.lhs, c.Milp.Model.rhs))
      (Milp.Model.conss model)
  in
  let added =
    Milp.Cuts.separate_round pool ~sp:(Milp.Sparse.of_model model) ~rows ~point
      ~basis:None ~incumbent:None
  in
  Alcotest.(check bool) "the LP optimum is cut off" true (added > 0);
  let sol = Milp.Solver.solve model in
  Alcotest.(check bool) "cut-free solve optimal" true
    (sol.Milp.Solver.status = Milp.Solver.Optimal);
  List.iter
    (fun (c : Milp.Cuts.cut) ->
      Alcotest.(check bool) "violated at the LP optimum" true
        (Milp.Cuts.eval_cut c point > c.Milp.Cuts.rhs +. 1e-9);
      Alcotest.(check bool) "holds at the MILP optimum" true
        (Milp.Cuts.eval_cut c sol.Milp.Solver.values <= c.Milp.Cuts.rhs +. 1e-6))
    (Milp.Cuts.active_cuts pool)

let suite =
  [
    ("fig1 (a) fixed demand", `Quick, test_fig1_fixed_demand);
    ("fig1 (c/d) naive worst case", `Quick, test_fig1_naive_worst_case);
    ("fig1 (e/f) raha joint", `Quick, test_fig1_raha_joint);
    ("fig1 kkt encoding matches", `Quick, test_fig1_kkt_matches);
    ("analysis options reach the solver", `Quick, test_options_reach_solver);
    ("root cuts on the bilevel model are valid", `Quick, test_root_cuts_valid);
    ("fig1 verified by simulation", `Quick, test_fig1_verified_by_simulation);
    ("threshold respected", `Quick, test_threshold_constraint_respected);
    ("threshold excludes all", `Quick, test_threshold_excludes_all);
    ("connected enforced", `Quick, test_connected_enforced);
    ("naive failover analysis", `Quick, test_naive_failover_analysis);
    ("mlu bilevel", `Quick, test_mlu_bilevel);
    ("srlg coupling", `Quick, test_srlg_coupling);
    QCheck_alcotest.to_alcotest prop_fixed_demand_matches_oracle;
    QCheck_alcotest.to_alcotest prop_variable_demand_beats_fixed;
  ]
