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

(* what every augment result must satisfy, whichever family *)
let check_augment_result ~tolerance (r : Raha.Augment.result) =
  let links l = List.fold_left (fun a (_, n) -> a + n) 0 l in
  check_int "total_links_added sums the steps"
    (List.fold_left
       (fun a (s : Raha.Augment.step) ->
         a + links s.Raha.Augment.lag_links_added + links s.Raha.Augment.new_lags_added)
       0 r.Raha.Augment.steps)
    r.Raha.Augment.total_links_added;
  Alcotest.(check bool) "final report within tolerance" false
    (Raha.Alert.(decide (evidence r.Raha.Augment.topo (Deep r.Raha.Augment.final)) ~tolerance)
    = Raha.Alert.Exceeded)

let test_augment_lags_fig1 () =
  (* after augmenting, no single-link failure may degrade fig1 *)
  let options = { Raha.Analysis.default_options with spec = spec_k1 } in
  let r =
    Raha.Augment.augment_lags ~options ~link_capacity:4. ~new_capacity_can_fail:false
      fig1 (fig1_paths ()) (fig1_envelope ())
  in
  Alcotest.(check bool) "converged" true r.Raha.Augment.converged;
  check_augment_result ~tolerance:1e-6 r;
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
  check_augment_result ~tolerance:1e-6 r;
  Alcotest.(check bool) "A-C LAG added" true
    (Wan.Topology.lag_between r.Raha.Augment.topo 0 2 <> None)

(* --- alerts ------------------------------------------------------------ *)

let test_alert_fast_stage () =
  (* fig1 with tolerance below the fixed-peak degradation: on fig1's
     single-link LAGs the worst single failure is a whole-LAG candidate,
     so the replayed witness already reaches the fast optimum and raises
     the alert; the fast stage still runs and agrees *)
  let peak = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let v =
    Raha.Alert.run ~options:k1_options ~tolerance:0.5 fig1 (fig1_paths ()) ~peak
      (fig1_envelope ())
  in
  Alcotest.(check bool) "alert" true (v.Raha.Alert.decision = Raha.Alert.Exceeded);
  Alcotest.(check bool) "witness stage" true (v.Raha.Alert.stage = Some Raha.Alert.Witness_replay);
  (match (v.Raha.Alert.witness, v.Raha.Alert.fast) with
  | Some w, Some fast ->
    Alcotest.(check bool) "the fast stage exceeds too" true
      (Raha.Alert.decide (Raha.Alert.evidence fig1 (Raha.Alert.Fast fast)) ~tolerance:0.5
      = Raha.Alert.Exceeded);
    check_float "witness = fast optimum" fast.Raha.Analysis.degradation w.Raha.Alert.degradation
  | None, _ -> Alcotest.fail "no witness"
  | _, None -> Alcotest.fail "the fast stage did not run");
  Alcotest.(check bool) "no deep run" true (v.Raha.Alert.deep = None)

let test_alert_deep_stage () =
  (* tolerance above the fixed-peak degradation (7/6.8 ~ 1.03) but below
     the variable-demand one (9/6.8 ~ 1.32): deep alert *)
  let peak = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let v =
    Raha.Alert.run ~options:k1_options ~tolerance:1.1 fig1 (fig1_paths ()) ~peak
      (fig1_envelope ())
  in
  Alcotest.(check bool) "alert" true (v.Raha.Alert.decision = Raha.Alert.Exceeded);
  Alcotest.(check bool) "deep stage" true
    (v.Raha.Alert.stage = Some Raha.Alert.Deep_variable_demand)

(* tolerance 2: above the deep answer (9/6.8 ~ 1.32) and below the
   bound (33/6.8 ~ 4.85), so only the deep stage can settle it *)
let test_alert_quiet () =
  let peak = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let v =
    Raha.Alert.run ~options:k1_options ~tolerance:2. fig1 (fig1_paths ()) ~peak
      (fig1_envelope ())
  in
  Alcotest.(check bool) "no alert" true (v.Raha.Alert.decision = Raha.Alert.Within);
  Alcotest.(check bool) "deep ran" true (v.Raha.Alert.deep <> None)

(* A budget-starved africa-like WAN: the full-budget optimum is 52
   (normalized 0.35), but a 1 ns budget stops the search before its
   first node, at the 30 the screening found (normalized 0.2). *)
let starved () =
  let topo = Wan.Generators.africa_like ~seed:1 ~n:8 () in
  let pairs = [ (0, 5); (1, 6); (2, 7) ] in
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 topo pairs in
  let envelope =
    Traffic.Envelope.around ~slack:0.3
      (Traffic.Demand.of_list [ ((0, 5), 40.); ((1, 6), 60.); ((2, 7), 40.) ])
  in
  let spec =
    {
      Raha.Bilevel.default_spec with
      Raha.Bilevel.threshold = Some 1e-5;
      encoding = Raha.Bilevel.Strong_duality { levels = 4 };
    }
  in
  let options = { Raha.Analysis.default_options with spec; time_limit = 1e-9 } in
  (topo, paths, envelope, options)

(* A budget stop leaves the unexplored node's bound in the answer: the
   starved bound still covers the full-budget optimum. *)
let test_starved_bound () =
  let topo, paths, envelope, options = starved () in
  let full =
    Raha.Analysis.analyze ~options:{ options with time_limit = 60. } topo paths envelope
  in
  Alcotest.(check bool) "full budget: optimal" true (full.Raha.Analysis.status = Milp.Solver.Optimal);
  check_float ~eps:1e-4 "full budget: 52" 52. full.Raha.Analysis.degradation;
  let r = Raha.Analysis.analyze ~options topo paths envelope in
  Alcotest.(check bool) "starved: feasible" true (r.Raha.Analysis.status = Milp.Solver.Feasible);
  check_int "starved: no node" 0 r.Raha.Analysis.nodes;
  Alcotest.(check bool) "starved: bound covers the optimum" true (r.Raha.Analysis.bound >= 52.)

(* An unproven answer below the tolerance decides nothing: the starved
   pipeline at tolerance 0.3, which a full budget exceeds, is
   undecided, and the starved augmentation loop does not converge. *)
let test_starved_undecided () =
  let topo, paths, envelope, options = starved () in
  let v =
    Raha.Alert.run ~options ~tolerance:0.3 topo paths ~peak:envelope.Traffic.Envelope.hi
      envelope
  in
  Alcotest.(check bool) "undecided" true (v.Raha.Alert.decision = Raha.Alert.Open);
  Alcotest.(check bool) "no deciding stage" true (v.Raha.Alert.stage = None);
  (match v.Raha.Alert.deep with
  | Some d -> Alcotest.(check bool) "deep: unproven" true (d.Raha.Analysis.status <> Milp.Solver.Optimal)
  | None -> Alcotest.fail "the deep stage did not run");
  let r = Raha.Augment.augment_lags ~options ~tolerance:0.3 topo paths envelope in
  Alcotest.(check bool) "augment: not converged" false r.Raha.Augment.converged;
  check_int "augment: no step" 0 (List.length r.Raha.Augment.steps)

(* Both stages are plain [analyze] calls under the caller's options:
   the fast one at the fixed peak with a quarter of the time limit, the
   deep one on the envelope. [o] turns cuts off, which moves the node
   count on fig1, so an option the pipeline dropped would show. The
   tolerance lies between the deep answer and the bound, so both
   stages run. *)
let test_alert_stages_are_analyze () =
  let paths = fig1_paths () and envelope = fig1_envelope () in
  let peak = envelope.Traffic.Envelope.hi in
  let o = { k1_options with cuts = Milp.Cuts.disabled; time_limit = 60. } in
  let v = Raha.Alert.run ~options:o ~tolerance:2. fig1 paths ~peak envelope in
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
  (match v.Raha.Alert.fast with
  | Some f -> same "fast" fast f
  | None -> Alcotest.fail "the fast stage did not run");
  let deep = Raha.Analysis.analyze ~options:o fig1 paths envelope in
  (match v.Raha.Alert.deep with
  | Some d -> same "deep" deep d
  | None -> Alcotest.fail "the deep stage did not run");
  let with_cuts = Raha.Analysis.analyze ~options:k1_options fig1 paths envelope in
  Alcotest.(check bool) "disabling cuts moves the deep node count" true
    (with_cuts.Raha.Analysis.nodes <> deep.Raha.Analysis.nodes)

(* On a point envelope the two stages pose the same problem: a proved
   fast answer is returned as the deep one, after one branch-and-bound
   solve, with the bits a separate analyze of the envelope reports. A
   variable envelope around the same peak still runs both stages.
   Tolerance 2 lies above both answers (7/6.8 and 9/6.8) and below
   both bounds (22/6.8 and 33/6.8), so the deep stage is needed. *)
let test_alert_point_envelope () =
  let paths = fig1_paths () in
  let peak = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let envelope = Traffic.Envelope.fixed peak in
  let s0 = Milp.Lp_stats.read Milp.Lp_stats.bb_solves () in
  let v = Raha.Alert.run ~options:k1_options ~tolerance:2. fig1 paths ~peak envelope in
  check_int "one branch-and-bound solve" 1 (Milp.Lp_stats.read Milp.Lp_stats.bb_solves () - s0);
  Alcotest.(check bool) "no alert" true (v.Raha.Alert.decision = Raha.Alert.Within);
  let want = Raha.Analysis.analyze ~options:k1_options fig1 paths envelope in
  match v.Raha.Alert.deep with
  | None -> Alcotest.fail "no deep report"
  | Some d ->
    Alcotest.(check bool) "optimal" true (d.Raha.Analysis.status = Milp.Solver.Optimal);
    Alcotest.(check int64) "degradation bits"
      (Int64.bits_of_float want.Raha.Analysis.degradation)
      (Int64.bits_of_float d.Raha.Analysis.degradation);
    Alcotest.(check int64) "bound bits" (Int64.bits_of_float want.Raha.Analysis.bound)
      (Int64.bits_of_float d.Raha.Analysis.bound);
    check_int "nodes" want.Raha.Analysis.nodes d.Raha.Analysis.nodes;
    Alcotest.(check (list (pair int int))) "scenario"
      (Failure.Scenario.links want.Raha.Analysis.scenario)
      (Failure.Scenario.links d.Raha.Analysis.scenario);
    let s0 = Milp.Lp_stats.read Milp.Lp_stats.bb_solves () in
    let v =
      Raha.Alert.run ~options:k1_options ~tolerance:2. fig1 paths ~peak
        (Traffic.Envelope.around ~slack:0.5 peak)
    in
    Alcotest.(check bool) "variable envelope: deep report" true (v.Raha.Alert.deep <> None);
    check_int "variable envelope: two branch-and-bound solves" 2
      (Milp.Lp_stats.read Milp.Lp_stats.bb_solves () - s0)

(* [Alert.fast] alone decides what the fast stage solves: on a point
   envelope at the peak it hands the caller's [worst] a quarter of the
   budget and solves nothing itself; on a variable envelope, or a point
   one off the peak, it analyzes the peak and never calls [worst]. *)
let test_alert_fast_rule () =
  let paths = fig1_paths () in
  let peak = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let canned =
    Raha.Analysis.analyze ~options:k1_options fig1 paths (Traffic.Envelope.fixed peak)
  in
  let budgets = ref [] in
  let worst o =
    budgets := o.Raha.Analysis.time_limit :: !budgets;
    canned
  in
  let options = { k1_options with Raha.Analysis.time_limit = 8. } in
  let solves () = Milp.Lp_stats.read Milp.Lp_stats.bb_solves () in
  let fast envelope = Raha.Alert.fast ~options ~worst fig1 paths ~peak envelope in
  let s0 = solves () in
  let r = fast (Traffic.Envelope.fixed peak) in
  check_int "no branch-and-bound solve of its own" 0 (solves () - s0);
  Alcotest.(check (list (float 0.))) "worst called once, on a quarter budget" [ 2. ] !budgets;
  Alcotest.(check bool) "the fast report is worst's" true (r == canned);
  budgets := [];
  let s0 = solves () in
  ignore (fast (Traffic.Envelope.around ~slack:0.5 peak));
  check_int "variable envelope: one solve at the peak" 1 (solves () - s0);
  ignore (fast (Traffic.Envelope.fixed (Traffic.Demand.scale 0.5 peak)));
  check_int "worst never called off a point envelope at the peak" 0 (List.length !budgets)

(* Under Min_failed_performance the candidates rank failed performance,
   not degradation: the witness stage replays nothing, and the pipeline
   decides from its solving stages alone. *)
let test_witness_skipped_min_failed () =
  let spec = { spec_k1 with Raha.Bilevel.goal = Raha.Bilevel.Min_failed_performance } in
  let options = { k1_options with Raha.Analysis.spec } in
  let peak = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let candidates, w = Raha.Alert.witness ~options fig1 (fig1_paths ()) ~peak in
  Alcotest.(check bool) "no candidates" true (candidates = None);
  Alcotest.(check bool) "no witness" true (w = None);
  let v = Raha.Alert.run ~options ~tolerance:0. fig1 (fig1_paths ()) ~peak (fig1_envelope ()) in
  Alcotest.(check bool) "never a witness alert" true (v.Raha.Alert.stage <> Some Raha.Alert.Witness_replay)

(* The witness is an admissible point of the fast stage's problem, so
   it never reads above the fast stage's proved optimum: small
   africa-like WANs under each TE objective, at most two failures, the
   fast stage at the peak of a variable envelope (lent the witness's
   candidates, as the pipeline does). *)
let prop_witness_below_fast =
  QCheck2.Test.make ~name:"witness <= fast degradation" ~count:12
    QCheck2.Gen.(
      let* seed = int_range 0 200 in
      let* k = int_range 1 2 in
      let* objective =
        oneofl
          [
            Te.Formulation.Total_flow;
            Te.Formulation.Max_min { bins = 3; ratio = 1. };
            Te.Formulation.Mlu { u_max = 10. };
          ]
      in
      return (seed, k, objective))
    (fun (seed, k, objective) ->
      let topo = Wan.Generators.africa_like ~seed ~n:6 () in
      let pairs = [ (0, 3); (1, 4) ] in
      let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 topo pairs in
      let peak = Traffic.Demand.of_list (List.map (fun p -> (p, 70.)) pairs) in
      let spec =
        { Raha.Bilevel.default_spec with Raha.Bilevel.objective; max_failures = Some k }
      in
      let options = { Raha.Analysis.default_options with spec } in
      let candidates, witness = Raha.Alert.witness ~options topo paths ~peak in
      let fast =
        Raha.Alert.fast ~options ?candidates
          ~worst:(fun _ -> Alcotest.fail "a variable envelope never reads the worst case")
          topo paths ~peak (Traffic.Envelope.around ~slack:0.3 peak)
      in
      match witness with
      | None -> QCheck2.Test.fail_report "no witness under Max_degradation"
      | Some w ->
        let deg = fast.Raha.Analysis.degradation in
        fast.Raha.Analysis.status = Milp.Solver.Optimal
        && (w.Raha.Alert.degradation <= deg +. (1e-6 *. Float.max 1. (Float.abs deg))
           || QCheck2.Test.fail_reportf "witness %.17g above fast %.17g" w.Raha.Alert.degradation deg))

(* The bound stage's proof (alert.mli): when degradation is a
   difference of total flows no answer degrades more than the total
   demand at the envelope's upper corner. Small africa-like WANs under
   Total_flow and Max_min, at most one or two failures or any number,
   light to capacity-bound demand, on a point envelope at the peak and
   on envelopes around it: the bound is at or above the witness and the
   fast and deep stages' proved degradations (1e-6 relative). With any
   number of failures every path can be cut, so on light demand the
   deep answer reaches the bound, above the total demand at the peak. *)
let prop_bound_above_answers =
  QCheck2.Test.make ~name:"bound >= witness, fast and deep degradation" ~count:12
    QCheck2.Gen.(
      let* seed = int_range 0 200 in
      let* objective =
        oneofl [ Te.Formulation.Total_flow; Te.Formulation.Max_min { bins = 3; ratio = 1. } ]
      in
      let* k = oneofl [ Some 1; Some 2; None ] in
      let* volume = oneofl [ 20.; 70.; 150. ] in
      let* slack = oneofl [ 0.; 0.2; 0.5 ] in
      return (seed, objective, k, volume, slack))
    (fun (seed, objective, max_failures, volume, slack) ->
      let topo = Wan.Generators.africa_like ~seed ~n:6 () in
      let pairs = [ (0, 3); (1, 4) ] in
      let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 topo pairs in
      let peak = Traffic.Demand.of_list (List.map (fun p -> (p, volume)) pairs) in
      let envelope =
        if slack = 0. then Traffic.Envelope.fixed peak else Traffic.Envelope.around ~slack peak
      in
      let spec = { Raha.Bilevel.default_spec with Raha.Bilevel.objective; max_failures } in
      let options = { Raha.Analysis.default_options with spec } in
      match Raha.Alert.bound ~options ~peak envelope with
      | None -> QCheck2.Test.fail_report "no bound on a total-flow degradation"
      | Some b ->
        let candidates, witness = Raha.Alert.witness ~options topo paths ~peak in
        let worst o = Raha.Analysis.analyze ?candidates ~options:o topo paths envelope in
        let fast = Raha.Alert.fast ~options ?candidates ~worst topo paths ~peak envelope in
        let deep = worst options in
        let at_most what x =
          x <= b +. (1e-6 *. Float.max 1. b)
          || QCheck2.Test.fail_reportf "%s %.17g above the bound %.17g" what x b
        in
        let proved (r : Raha.Analysis.report) = r.Raha.Analysis.status = Milp.Solver.Optimal in
        (proved fast && proved deep || QCheck2.Test.fail_report "an unproven stage")
        && Option.fold witness ~none:true ~some:(fun w -> at_most "witness" w.Raha.Alert.degradation)
        && at_most "fast" fast.Raha.Analysis.degradation
        && at_most "deep" deep.Raha.Analysis.degradation)

(* There is no bound under Mlu or Min_failed_performance, whose
   degradation is not a difference of total flows; they keep the
   pipeline's behaviour, so a tolerance the bound would settle still
   runs both solving stages. Under Total_flow and Max_min the bound is
   the total demand at the upper corner (18 + 15 on fig1's envelope),
   and it settles that tolerance without solving anything. *)
let test_bound_scope () =
  let paths = fig1_paths () and envelope = fig1_envelope () in
  let peak = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let options spec = { k1_options with Raha.Analysis.spec } in
  let bound spec = Raha.Alert.bound ~options:(options spec) ~peak envelope in
  let solves () = Milp.Lp_stats.read Milp.Lp_stats.bb_solves () in
  List.iter
    (fun (what, spec) ->
      (match bound spec with
      | Some b -> check_float (what ^ ": total demand at the upper corner") 33. b
      | None -> Alcotest.fail (what ^ ": no bound"));
      let s0 = solves () in
      let v = Raha.Alert.run ~options:(options spec) ~tolerance:1e6 fig1 paths ~peak envelope in
      Alcotest.(check bool) (what ^ ": settled quietly") true
        (v.Raha.Alert.decision = Raha.Alert.Within);
      Alcotest.(check bool) (what ^ ": no solving stage") true
        (v.Raha.Alert.fast = None && v.Raha.Alert.deep = None);
      check_int (what ^ ": no branch-and-bound solve") 0 (solves () - s0))
    [
      ("Total_flow", spec_k1);
      ("Max_min", { spec_k1 with Raha.Bilevel.objective = Te.Formulation.Max_min { bins = 3; ratio = 1. } });
    ];
  List.iter
    (fun (what, spec) ->
      Alcotest.(check bool) (what ^ ": no bound") true (bound spec = None);
      let v = Raha.Alert.run ~options:(options spec) ~tolerance:1e6 fig1 paths ~peak envelope in
      Alcotest.(check bool) (what ^ ": no bound in the verdict") true (v.Raha.Alert.bound = None);
      Alcotest.(check bool) (what ^ ": both solving stages ran") true
        (v.Raha.Alert.fast <> None && v.Raha.Alert.deep <> None))
    [
      ("Mlu", { spec_k1 with Raha.Bilevel.objective = Te.Formulation.Mlu { u_max = 10. } });
      ("Min_failed_performance", { spec_k1 with Raha.Bilevel.goal = Raha.Bilevel.Min_failed_performance });
    ]

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
  let summary = Raha.Report.summary_row r in
  (* status, degradation, normalized, bound, failed links, probability,
     healthy, failed, nodes: no wall clock *)
  check_int "summary fields" 9 (List.length (String.split_on_char ',' summary));
  Alcotest.(check string) "the same solve renders the same row" summary
    (Raha.Report.summary_row (Raha.Analysis.analyze ~options fig1 paths (Traffic.Envelope.fixed d)));
  Alcotest.(check bool) "starts with status" true
    (String.length summary > 8 && String.sub summary 0 8 = "optimal,");
  (* per-pair losses (healthy - failed) sum to the degradation *)
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
    ("starved bound covers the optimum", `Quick, test_starved_bound);
    ("starved alert undecided, augment unconverged", `Quick, test_starved_undecided);
    ("alert stages are analyze", `Quick, test_alert_stages_are_analyze);
    ("alert on a point envelope solves once", `Quick, test_alert_point_envelope);
    ("alert fast stage rule", `Quick, test_alert_fast_rule);
    ("k failures monotone", `Quick, test_k_failures_monotone);
    ("worst failures at demand", `Quick, test_worst_failures_at_demand);
    ("fixed fast path equivalent", `Quick, test_fixed_fast_path_equivalent);
    ("report csv", `Quick, test_report_csv);
    ("explanation renders", `Quick, test_explanation_renders);
    QCheck_alcotest.to_alcotest prop_threshold_and_k_matches_oracle;
    QCheck_alcotest.to_alcotest prop_degradation_monotone_in_envelope;
    ("witness skipped under min failed performance", `Quick, test_witness_skipped_min_failed);
    QCheck_alcotest.to_alcotest prop_witness_below_fast;
    ("bound only on total-flow degradation", `Quick, test_bound_scope);
    QCheck_alcotest.to_alcotest prop_bound_above_answers;
  ]
