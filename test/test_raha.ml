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
   or swapped field in the options mapping fails here; the two ignored
   fields move nothing. Seeding is off in every arm so the screening
   overlays add no warm starts. *)
let test_options_reach_solver () =
  let spec = spec_k1 Raha.Bilevel.Max_degradation Raha.Bilevel.Kkt in
  let envelope =
    Traffic.Envelope.around ~slack:0.5
      (Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ])
  in
  let run override =
    let options =
      override { Raha.Analysis.default_options with spec; seed_enumeration = Some 0 }
    in
    let scope = Milp.Lp_stats.scope_enter () in
    let r = Raha.Analysis.analyze ~options fig1 (fig1_paths ()) envelope in
    (r, (Milp.Lp_stats.scope_exit scope).Milp.Lp_stats.scope_counters)
  in
  let base_r, base_counters = run Fun.id in
  let base name = List.assoc name base_counters in
  let arm what override =
    let r, counters = run override in
    check_float ~eps:1e-6 (what ^ ": degradation") base_r.Raha.Analysis.degradation
      r.Raha.Analysis.degradation;
    fun name -> List.assoc name counters
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
  let r, counters = run (fun o -> { o with Raha.Analysis.bb_width = 2; bb_grain = 4 }) in
  Alcotest.(check (list (pair string int))) "bb_width, bb_grain: counters" base_counters counters;
  List.iter
    (fun (what, get) ->
      Alcotest.(check int64) ("bb_width, bb_grain: " ^ what)
        (Int64.bits_of_float (get base_r)) (Int64.bits_of_float (get r)))
    [ ("degradation", fun r -> r.Raha.Analysis.degradation);
      ("bound", fun r -> r.Raha.Analysis.bound);
      ("normalized", fun r -> r.Raha.Analysis.normalized) ];
  Alcotest.(check int) "bb_width, bb_grain: nodes" base_r.Raha.Analysis.nodes r.Raha.Analysis.nodes;
  Alcotest.(check bool) "bb_width, bb_grain: scenario" true
    (Failure.Scenario.equal base_r.Raha.Analysis.scenario r.Raha.Analysis.scenario)

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

(* --- the grid oracle (Total_flow) ------------------------------------ *)

(* Under the strong-duality encoding each pair's demand takes one of
   [levels] values, so on a small WAN the model's exact optimum is a
   finite maximum: every point of the level grid times every scenario
   of [Failure.Enumerate.up_to_k], replayed through
   [Te.Simulate.degradation], which uses neither Bilevel nor Inner. The
   oracle thereby checks that an answer is the optimum, not just a
   valid point: a too-small dual box, a wrong closure or a dropped row
   shows as an answer below the grid maximum.

   The instances are fixed here: africa_like nets on 7 nodes (their
   backbone LAGs hold 2-4 links, so partial LAG failures occur), pairs
   (0,4) and (1,5) with one backup each, one primary or two, k = 1 or
   2, and demands drawn from the seed. *)
let grid_levels = 3

let grid_seeds = [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let grid_instance seed =
  let topo = Wan.Generators.africa_like ~seed ~n:7 () in
  let n_primary = 1 + (seed / 2 mod 2) and k = 1 + (seed mod 2) in
  let pairs = [ (0, 4); (1, 5) ] in
  let paths = Netpath.Path_set.compute ~n_primary ~n_backup:1 topo pairs in
  let rng = Random.State.make [| seed + 101 |] in
  let spread = if seed < 4 then 150. else 400. in
  let base =
    Traffic.Demand.of_list
      (List.map (fun p -> (p, 20. +. Random.State.float rng spread)) pairs)
  in
  (topo, paths, base, k)

(* the worst replayed degradation at demand [d] over every scenario of
   at most [k] failed links *)
let worst_at topo paths d ~k =
  List.fold_left
    (fun acc s ->
      match Te.Simulate.degradation topo paths d s with
      | Some deg -> Float.max acc deg
      | None -> acc)
    0.
    (Failure.Enumerate.up_to_k topo ~k)

(* every demand matrix of the envelope's level grid, with whether it is
   a corner (each pair at its low or high end) *)
let level_grid envelope =
  List.fold_left
    (fun points (src, dst) ->
      let lo = Traffic.Envelope.lo_volume envelope ~src ~dst
      and hi = Traffic.Envelope.hi_volume envelope ~src ~dst in
      let step = (hi -. lo) /. float_of_int (grid_levels - 1) in
      List.concat_map
        (fun (entries, corner) ->
          List.init grid_levels (fun q ->
              ( ((src, dst), lo +. (step *. float_of_int q)) :: entries,
                corner && (q = 0 || q = grid_levels - 1) )))
        points)
    [ ([], true) ]
    (Traffic.Envelope.pairs envelope)
  |> List.map (fun (entries, corner) -> (Traffic.Demand.of_list entries, corner))

let grid_analyze topo paths envelope ~k encoding =
  let spec =
    { Raha.Bilevel.default_spec with Raha.Bilevel.max_failures = Some k; encoding }
  in
  let options = { (Raha.Analysis.with_timeout 30.) with spec } in
  Raha.Analysis.analyze ~options topo paths envelope

let sd = Raha.Bilevel.Strong_duality { levels = grid_levels }

(* an [Optimal] answer within 1e-6 relative of [oracle] *)
let check_exact what oracle (r : Raha.Analysis.report) =
  if r.Raha.Analysis.status <> Milp.Solver.Optimal then Alcotest.failf "%s: not optimal" what;
  let deg = r.Raha.Analysis.degradation in
  if Float.abs (deg -. oracle) > 1e-6 *. Float.max 1. (Float.abs oracle) then
    Alcotest.failf "%s: degradation %.9g, grid maximum %.9g" what deg oracle

let test_grid_oracle_fixed () =
  List.iter
    (fun seed ->
      let topo, paths, base, k = grid_instance seed in
      let oracle = worst_at topo paths base ~k in
      List.iter
        (fun (name, encoding) ->
          check_exact
            (Printf.sprintf "seed %d, %s fixed" seed name)
            oracle
            (grid_analyze topo paths (Traffic.Envelope.fixed base) ~k encoding))
        [ ("SD3", sd); ("KKT", Raha.Bilevel.Kkt) ])
    grid_seeds

let test_grid_oracle_variable () =
  List.iter
    (fun seed ->
      let topo, paths, base, k = grid_instance seed in
      let envelope = Traffic.Envelope.around ~slack:0.5 base in
      let grid =
        List.map (fun (d, corner) -> (worst_at topo paths d ~k, corner)) (level_grid envelope)
      in
      let oracle = List.fold_left (fun acc (w, _) -> Float.max acc w) 0. grid in
      check_exact (Printf.sprintf "seed %d, SD3 variable" seed) oracle
        (grid_analyze topo paths envelope ~k sd);
      (* the KKT encoding's demands are continuous: at least every
         corner, each of which is a point of its envelope *)
      let r = grid_analyze topo paths envelope ~k Raha.Bilevel.Kkt in
      if r.Raha.Analysis.status <> Milp.Solver.Optimal then
        Alcotest.failf "seed %d, KKT variable: not optimal" seed;
      List.iter
        (fun (w, corner) ->
          if corner && r.Raha.Analysis.degradation < w -. (1e-6 *. Float.max 1. w) then
            Alcotest.failf "seed %d, KKT variable: degradation %.9g below a corner's %.9g"
              seed r.Raha.Analysis.degradation w)
        grid)
    grid_seeds

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
    (naive.Raha.Analysis.degradation +. 1e-6 >= opt.Raha.Analysis.degradation);
  (* the MILP maximizes over healthy routings; the oracle replays the
     report's scenario and demand with one fixed healthy routing *)
  match
    Te.Simulate.degradation ~reaction:Te.Simulate.Naive_failover fig1 paths
      naive.Raha.Analysis.worst_demand naive.Raha.Analysis.scenario
  with
  | Some oracle ->
    Alcotest.(check bool)
      (Printf.sprintf "oracle %g <= MILP %g" oracle naive.Raha.Analysis.degradation)
      true
      (oracle <= naive.Raha.Analysis.degradation +. 1e-6)
  | None -> Alcotest.fail "oracle replay infeasible"

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

(* With no failure allowed (k = 0) the failed network is the healthy
   one, so every objective's degradation is 0 under both encodings. MLU
   used to report a positive value here: Eq. 4 only forced paths down, so
   the adversary could close a healthy primary for free. *)
let test_no_failure_no_degradation () =
  let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 fig1 [ (1, 3); (2, 3) ] in
  let base = Traffic.Demand.of_list [ ((1, 3), 4.); ((2, 3), 4.) ] in
  List.iter
    (fun (oname, objective) ->
      List.iter
        (fun (ename, encoding) ->
          List.iter
            (fun (dname, envelope) ->
              let spec =
                {
                  Raha.Bilevel.default_spec with
                  Raha.Bilevel.objective;
                  encoding;
                  max_failures = Some 0;
                  connected_enforced = true;
                }
              in
              let options = { Raha.Analysis.default_options with spec } in
              let r = Raha.Analysis.analyze ~options fig1 paths envelope in
              let what = Printf.sprintf "%s %s %s" oname ename dname in
              Alcotest.(check bool) (what ^ " optimal") true
                (r.Raha.Analysis.status = Milp.Solver.Optimal);
              check_float ~eps:1e-6 (what ^ " degradation") 0. r.Raha.Analysis.degradation)
            [
              ("fixed", Traffic.Envelope.fixed base);
              ("variable", Traffic.Envelope.around ~slack:0.5 base);
            ])
        [ ("kkt", Raha.Bilevel.Kkt); ("sd", Raha.Bilevel.Strong_duality { levels = 3 }) ])
    [
      ("total-flow", Te.Formulation.Total_flow);
      ("max-min", Te.Formulation.Max_min { bins = 3; ratio = 1. });
      ("mlu", Te.Formulation.Mlu { u_max = 10. });
    ]

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
    ("k = 0 degrades nothing", `Quick, test_no_failure_no_degradation);
    ("srlg coupling", `Quick, test_srlg_coupling);
    ("grid oracle (Total_flow): fixed demand", `Quick, test_grid_oracle_fixed);
    ("grid oracle (Total_flow): variable demand", `Quick, test_grid_oracle_variable);
  ]
