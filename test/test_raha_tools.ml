(* Clustering (Algorithm 1), capacity augmentation (§7), the alert
   pipeline and the evaluation baselines. *)

let check_int = Alcotest.(check int)
let check_float ?(eps = 1e-5) what expected got =
  Alcotest.(check (float eps)) what expected got

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

let k1_options = { Raha.Analysis.default_options with spec = spec_k1 }

(* --- clustering -------------------------------------------------------- *)

let test_partition () =
  let topo = Wan.Generators.africa_like ~seed:3 ~n:12 () in
  let assign = Raha.Cluster.partition topo ~clusters:3 in
  check_int "covers all nodes" 12 (Array.length assign);
  let ids = Array.to_list assign |> List.sort_uniq compare in
  check_int "three clusters" 3 (List.length ids);
  Alcotest.(check bool) "ids in range" true (List.for_all (fun c -> c >= 0 && c < 3) ids);
  (* more clusters than nodes degrade gracefully *)
  let small = Raha.Cluster.partition fig1 ~clusters:10 in
  Alcotest.(check bool) "clamped" true (Array.for_all (fun c -> c >= 0 && c < 4) small)

let test_cluster_analysis_reaches_optimum_on_fig1 () =
  (* fig1 is small enough that clustering should not lose anything *)
  let options = { Raha.Analysis.default_options with spec = spec_k1 } in
  let r =
    Raha.Cluster.analyze ~options ~clusters:2 fig1 (fig1_paths ()) (fig1_envelope ())
  in
  Alcotest.(check bool) "solved" true
    (r.Raha.Cluster.report.Raha.Analysis.status = Milp.Solver.Optimal);
  (* clustering is an approximation: it must find a valid lower bound and
     here (independent demands) the exact optimum *)
  check_float "finds 9" 9. r.Raha.Cluster.report.Raha.Analysis.degradation;
  Alcotest.(check bool) "block solves counted" true (r.Raha.Cluster.block_solves >= 2)

let test_cluster_never_exceeds_unclustered () =
  let topo = Wan.Generators.africa_like ~seed:9 ~n:8 () in
  let pairs = [ (0, 5); (1, 6); (2, 7) ] in
  let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 topo pairs in
  let base = Traffic.Demand.of_list (List.map (fun p -> (p, 60.)) pairs) in
  let envelope = Traffic.Envelope.from_zero ~slack:0.2 base in
  let spec =
    { spec_k1 with Raha.Bilevel.encoding = Raha.Bilevel.Strong_duality { levels = 3 } }
  in
  let options = { Raha.Analysis.default_options with spec } in
  let full = Raha.Analysis.analyze ~options topo paths envelope in
  let clustered = Raha.Cluster.analyze ~options ~clusters:2 topo paths envelope in
  Alcotest.(check bool) "clustered <= full optimum" true
    (clustered.Raha.Cluster.report.Raha.Analysis.degradation
    <= full.Raha.Analysis.degradation +. 1e-4)

(* --- augmentation ------------------------------------------------------ *)

let test_augment_lags_fig1 () =
  (* after augmenting, no single-link failure may degrade fig1 *)
  let options = { Raha.Analysis.default_options with spec = spec_k1 } in
  let r =
    Raha.Augment.augment_lags ~options ~link_capacity:4. ~new_capacity_can_fail:false
      fig1 (fig1_paths ()) (fig1_envelope ())
  in
  Alcotest.(check bool) "converged" true r.Raha.Augment.converged;
  Alcotest.(check bool) "added links" true (r.Raha.Augment.total_links_added > 0);
  check_float ~eps:1e-4 "no residual degradation" 0.
    r.Raha.Augment.final.Raha.Analysis.degradation;
  (* the augmented topology really is resilient: replay every single-link
     failure at several demands in the envelope *)
  let topo' = r.Raha.Augment.topo in
  let paths = fig1_paths () in
  List.iter
    (fun d ->
      List.iter
        (fun s ->
          match Te.Simulate.degradation topo' paths d s with
          | Some deg ->
            Alcotest.(check bool)
              (Printf.sprintf "resilient (deg %.3f)" deg)
              true (deg < 1e-4)
          | None -> Alcotest.fail "infeasible replay")
        (Failure.Enumerate.up_to_k topo' ~k:1))
    [
      Traffic.Demand.of_list [ ((1, 3), 18.); ((2, 3), 15.) ];
      Traffic.Demand.of_list [ ((1, 3), 6.); ((2, 3), 15.) ];
    ]

let test_augment_respects_probability_threshold () =
  (* with a threshold that excludes all failures, no augment is needed *)
  let spec = { spec_k1 with Raha.Bilevel.threshold = Some 0.9; max_failures = None } in
  let options = { Raha.Analysis.default_options with spec } in
  let r =
    Raha.Augment.augment_lags ~options fig1 (fig1_paths ()) (fig1_envelope ())
  in
  Alcotest.(check bool) "converged immediately" true r.Raha.Augment.converged;
  check_int "no steps" 0 (List.length r.Raha.Augment.steps);
  check_int "no links" 0 r.Raha.Augment.total_links_added

let test_augment_new_lags () =
  (* a path graph A - B - C with demand A->C: the B-C link is the weak
     point; allow a direct A-C LAG as candidate *)
  let topo =
    Wan.Topology.create ~name:"line" ~num_nodes:3
      [
        Wan.Lag.uniform ~id:0 ~src:0 ~dst:1 ~n:1 ~capacity:10. ~fail_prob:0.01;
        Wan.Lag.uniform ~id:1 ~src:1 ~dst:2 ~n:1 ~capacity:10. ~fail_prob:0.01;
      ]
  in
  let repath t =
    Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 t [ (0, 2) ]
  in
  let envelope =
    Traffic.Envelope.fixed (Traffic.Demand.of_list [ ((0, 2), 8.) ])
  in
  let options = { Raha.Analysis.default_options with spec = spec_k1 } in
  let r =
    Raha.Augment.augment_new_lags ~options ~link_capacity:10.
      ~candidates:[ (0, 2) ] ~repath topo envelope
  in
  Alcotest.(check bool) "converged" true r.Raha.Augment.converged;
  Alcotest.(check bool) "A-C LAG added" true
    (Wan.Topology.lag_between r.Raha.Augment.topo 0 2 <> None)

(* --- alerts ------------------------------------------------------------ *)

let test_alert_fast_stage () =
  (* fig1 with tolerance below the fixed-peak degradation: fast alert *)
  let peak = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let v =
    Raha.Alert.run ~options:k1_options ~tolerance:0.5 fig1 (fig1_paths ()) ~peak
      (fig1_envelope ())
  in
  Alcotest.(check bool) "alert" true v.Raha.Alert.alert;
  Alcotest.(check bool) "fast stage" true (v.Raha.Alert.stage = Some Raha.Alert.Fast_fixed_demand);
  Alcotest.(check bool) "no deep run" true (v.Raha.Alert.deep = None)

let test_alert_deep_stage () =
  (* tolerance above the fixed-peak degradation (7/6.8 ~ 1.03) but below
     the variable-demand one (9/6.8 ~ 1.32): deep alert *)
  let peak = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let v =
    Raha.Alert.run ~options:k1_options ~tolerance:1.1 fig1 (fig1_paths ()) ~peak
      (fig1_envelope ())
  in
  Alcotest.(check bool) "alert" true v.Raha.Alert.alert;
  Alcotest.(check bool) "deep stage" true
    (v.Raha.Alert.stage = Some Raha.Alert.Deep_variable_demand)

let test_alert_quiet () =
  let peak = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let v =
    Raha.Alert.run ~options:k1_options ~tolerance:5. fig1 (fig1_paths ()) ~peak
      (fig1_envelope ())
  in
  Alcotest.(check bool) "no alert" true (not v.Raha.Alert.alert);
  Alcotest.(check bool) "deep ran" true (v.Raha.Alert.deep <> None)

(* Both stages are plain [analyze] calls under the caller's options:
   the fast one at the fixed peak with a quarter of the time limit, the
   deep one on the envelope. [o] turns cuts off, which moves the node
   count on fig1, so an option the pipeline dropped would show. *)
let test_alert_stages_are_analyze () =
  let paths = fig1_paths () and envelope = fig1_envelope () in
  let peak = envelope.Traffic.Envelope.hi in
  let o = { k1_options with cuts = Milp.Cuts.disabled; time_limit = 60. } in
  let v = Raha.Alert.run ~options:o ~tolerance:5. fig1 paths ~peak envelope in
  let same what (want : Raha.Analysis.report) (got : Raha.Analysis.report) =
    Alcotest.(check int64) (what ^ " degradation bits")
      (Int64.bits_of_float want.Raha.Analysis.degradation)
      (Int64.bits_of_float got.Raha.Analysis.degradation);
    Alcotest.(check int64) (what ^ " bound bits")
      (Int64.bits_of_float want.Raha.Analysis.bound)
      (Int64.bits_of_float got.Raha.Analysis.bound);
    check_int (what ^ " nodes") want.Raha.Analysis.nodes got.Raha.Analysis.nodes
  in
  let fast =
    Raha.Analysis.analyze ~options:{ o with time_limit = o.time_limit /. 4. } fig1 paths
      (Traffic.Envelope.fixed peak)
  in
  same "fast" fast v.Raha.Alert.fast;
  let deep = Raha.Analysis.analyze ~options:o fig1 paths envelope in
  (match v.Raha.Alert.deep with
  | Some d -> same "deep" deep d
  | None -> Alcotest.fail "the deep stage did not run");
  let with_cuts = Raha.Analysis.analyze ~options:k1_options fig1 paths envelope in
  Alcotest.(check bool) "disabling cuts moves the deep node count" true
    (with_cuts.Raha.Analysis.nodes <> deep.Raha.Analysis.nodes)

(* --- baselines --------------------------------------------------------- *)

let test_k_failures_monotone () =
  (* more allowed failures never decrease the worst degradation *)
  let envelope = fig1_envelope () in
  let paths = fig1_paths () in
  let d1 = (Raha.Baselines.k_failures ~k:1 fig1 paths envelope).Raha.Analysis.degradation in
  let d2 = (Raha.Baselines.k_failures ~k:2 fig1 paths envelope).Raha.Analysis.degradation in
  let d3 = (Raha.Baselines.k_failures ~k:3 fig1 paths envelope).Raha.Analysis.degradation in
  Alcotest.(check bool) "k=2 >= k=1" true (d2 +. 1e-6 >= d1);
  Alcotest.(check bool) "k=3 >= k=2" true (d3 +. 1e-6 >= d2);
  check_float "k=1 is 9" 9. d1

let test_worst_failures_at_demand () =
  (* Fig. 3's point: the naive baseline underestimates the degradation *)
  let paths = fig1_paths () in
  let avg = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let options =
    { Raha.Analysis.default_options with spec = spec_k1 }
  in
  let naive = Raha.Baselines.worst_failures_at_demand ~options fig1 paths avg in
  (* at fixed (12,10) the naive implied degradation is the true fixed
     worst case (7) -- still below Raha's joint 9 *)
  check_float "implied degradation" 7. naive.Raha.Analysis.degradation;
  let joint =
    Raha.Analysis.analyze
      ~options fig1 paths (fig1_envelope ())
  in
  Alcotest.(check bool) "joint dominates" true
    (joint.Raha.Analysis.degradation > naive.Raha.Analysis.degradation +. 1e-6)

(* --- combined constraints vs oracle ------------------------------------- *)

let prop_threshold_and_k_matches_oracle =
  (* probability threshold AND max-failures together must match the
     enumeration oracle filtered the same way *)
  QCheck2.Test.make ~name:"threshold + k == filtered oracle" ~count:10
    QCheck2.Gen.(
      let* seed = int_range 0 300 in
      let* k = int_range 1 2 in
      let* thr_exp = int_range 3 6 in
      return (seed, k, thr_exp))
    (fun (seed, k, thr_exp) ->
      let threshold = Float.pow 10. (-.float_of_int thr_exp) in
      let topo = Wan.Generators.africa_like ~seed ~n:7 () in
      let pairs = [ (0, 4); (1, 5) ] in
      let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 topo pairs in
      let d = Traffic.Demand.of_list (List.map (fun p -> (p, 90.)) pairs) in
      let spec =
        {
          Raha.Bilevel.default_spec with
          Raha.Bilevel.max_failures = Some k;
          threshold = Some threshold;
        }
      in
      let options = { Raha.Analysis.default_options with spec } in
      let r = Raha.Analysis.analyze ~options topo paths (Traffic.Envelope.fixed d) in
      let oracle =
        List.fold_left
          (fun acc s ->
            if Failure.Scenario.prob topo s >= threshold then
              match Te.Simulate.degradation topo paths d s with
              | Some deg -> Float.max acc deg
              | None -> acc
            else acc)
          0.
          (Failure.Enumerate.up_to_k topo ~k)
      in
      r.Raha.Analysis.status = Milp.Solver.Optimal
      && Float.abs (r.Raha.Analysis.degradation -. oracle) < 1e-4)

(* --- fast path equivalence ----------------------------------------------- *)

let test_fixed_fast_path_equivalent () =
  (* a fixed envelope (fast path: healthy optimum solved separately) and
     an epsilon-wide envelope (general path) must agree *)
  let topo = Wan.Generators.africa_like ~seed:3 ~n:8 () in
  let pairs = [ (0, 5); (1, 6) ] in
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 topo pairs in
  let d = Traffic.Demand.of_list (List.map (fun p -> (p, 70.)) pairs) in
  let spec = { Raha.Bilevel.default_spec with Raha.Bilevel.max_failures = Some 2 } in
  let options = { Raha.Analysis.default_options with spec } in
  let fast = Raha.Analysis.analyze ~options topo paths (Traffic.Envelope.fixed d) in
  let slow =
    Raha.Analysis.analyze ~options topo paths (Traffic.Envelope.around ~slack:1e-9 d)
  in
  Alcotest.(check (float 1e-3)) "same degradation" slow.Raha.Analysis.degradation
    fast.Raha.Analysis.degradation;
  Alcotest.(check (float 1e-3)) "same healthy" slow.Raha.Analysis.healthy_performance
    fast.Raha.Analysis.healthy_performance

(* --- reporting ----------------------------------------------------------- *)

let test_report_csv () =
  let paths = fig1_paths () in
  let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let options = { Raha.Analysis.default_options with spec = spec_k1 } in
  let r = Raha.Analysis.analyze ~options fig1 paths (Traffic.Envelope.fixed d) in
  let csv = Raha.Report.to_csv r in
  let lines = String.split_on_char '\n' csv |> List.filter (fun l -> l <> "") in
  (* header + summary + pair header + 2 pair rows *)
  check_int "line count" 5 (List.length lines);
  Alcotest.(check bool) "summary header first" true
    (List.nth lines 0 = Raha.Report.summary_header);
  let summary = List.nth lines 1 in
  Alcotest.(check bool) "starts with status" true
    (String.length summary > 8 && String.sub summary 0 8 = "optimal,");
  (* per-pair rows carry the loss column: healthy - failed sums to the
     degradation *)
  let pair_loss =
    List.fold_left
      (fun acc ((_, _), h, f) -> acc +. (h -. f))
      0. r.Raha.Analysis.per_pair
  in
  check_float "per-pair losses sum to degradation" r.Raha.Analysis.degradation pair_loss

let test_explanation_renders () =
  let paths = fig1_paths () in
  let options = { Raha.Analysis.default_options with spec = spec_k1 } in
  let r = Raha.Analysis.analyze ~options fig1 paths (fig1_envelope ()) in
  let s = Format.asprintf "%a" (Raha.Analysis.pp_explanation fig1) r in
  Alcotest.(check bool) "mentions the failed LAG" true
    (let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
       go 0
     in
     contains s "goes down" && contains s "degradation")


let prop_degradation_monotone_in_envelope =
  (* a larger demand envelope can only increase the worst degradation *)
  QCheck2.Test.make ~name:"degradation monotone in envelope inclusion" ~count:8
    QCheck2.Gen.(int_range 0 200)
    (fun seed ->
      let topo = Wan.Generators.africa_like ~seed ~n:7 () in
      let pairs = [ (0, 4); (1, 5) ] in
      let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 topo pairs in
      let base = Traffic.Demand.of_list (List.map (fun p -> (p, 70.)) pairs) in
      (* levels chosen so the small demand grid {0, .75, 1.5}*base is a
         subset of the large one {0, .75, 1.5, 2.25, 3}*base *)
      let run slack levels =
        let spec =
          {
            Raha.Bilevel.default_spec with
            Raha.Bilevel.max_failures = Some 2;
            encoding = Raha.Bilevel.Strong_duality { levels };
          }
        in
        let options = { Raha.Analysis.default_options with spec } in
        Raha.Analysis.analyze ~options topo paths (Traffic.Envelope.from_zero ~slack base)
      in
      let small = run 0.5 3 and large = run 2.0 5 in
      small.Raha.Analysis.status = Milp.Solver.Optimal
      && large.Raha.Analysis.status = Milp.Solver.Optimal
      && large.Raha.Analysis.degradation +. 1e-4 >= small.Raha.Analysis.degradation)

let suite =
  [
    ("partition", `Quick, test_partition);
    ("cluster analysis on fig1", `Quick, test_cluster_analysis_reaches_optimum_on_fig1);
    ("cluster never exceeds unclustered", `Quick, test_cluster_never_exceeds_unclustered);
    ("augment lags fig1", `Quick, test_augment_lags_fig1);
    ("augment respects threshold", `Quick, test_augment_respects_probability_threshold);
    ("augment new lags", `Quick, test_augment_new_lags);
    ("alert fast stage", `Quick, test_alert_fast_stage);
    ("alert deep stage", `Quick, test_alert_deep_stage);
    ("alert quiet", `Quick, test_alert_quiet);
    ("alert stages are analyze", `Quick, test_alert_stages_are_analyze);
    ("k failures monotone", `Quick, test_k_failures_monotone);
    ("worst failures at demand", `Quick, test_worst_failures_at_demand);
    ("fixed fast path equivalent", `Quick, test_fixed_fast_path_equivalent);
    ("report csv", `Quick, test_report_csv);
    ("explanation renders", `Quick, test_explanation_renders);
    QCheck_alcotest.to_alcotest prop_threshold_and_k_matches_oracle;
    QCheck_alcotest.to_alcotest prop_degradation_monotone_in_envelope;
  ]
