(* The Monte Carlo dataplane simulator, the max-min bi-level objective
   (Appendix A), and the KKT-vs-strong-duality encoding equivalence. *)

let check_int = Alcotest.(check int)
let check_float ?(eps = 1e-5) what expected got =
  Alcotest.(check (float eps)) what expected got

let fig1 = Wan.Generators.fig1 ()

(* --- Monte Carlo simulator ---------------------------------------------- *)

let mc_setup () =
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:0 fig1 [ (1, 3); (2, 3) ] in
  let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  (paths, d)

let test_monte_carlo_distribution () =
  let paths, d = mc_setup () in
  let degs, scens = Te.Monte_carlo.sample_degradations ~seed:7 ~samples:3000 fig1 paths d in
  check_int "count" 3000 (Array.length degs);
  let s = Te.Monte_carlo.summarize degs scens in
  (* all fig1 links have p = 0.01: most samples see no failure *)
  check_float ~eps:1e-9 "median is zero" 0. s.Te.Monte_carlo.p50;
  Alcotest.(check bool) "mean small but positive" true
    (s.Te.Monte_carlo.mean > 0. && s.Te.Monte_carlo.mean < 1.);
  (* max degradation over samples is bounded by the exhaustive worst case *)
  let oracle =
    List.fold_left
      (fun acc sc ->
        match Te.Simulate.degradation fig1 paths d sc with
        | Some deg -> Float.max acc deg
        | None -> acc)
      0.
      (Failure.Enumerate.up_to_k fig1 ~k:5)
  in
  Alcotest.(check bool) "max within oracle" true (s.Te.Monte_carlo.max_seen <= oracle +. 1e-9);
  (* empirical P(deg > 0) should be near 1 - (1-p)^5 ~ 4.9%, within noise *)
  let p_any = Te.Monte_carlo.prob_degradation_above degs 0. in
  Alcotest.(check bool)
    (Printf.sprintf "P(deg>0) = %.3f close to ~2-4%%" p_any)
    true
    (p_any > 0.003 && p_any < 0.12)

let test_monte_carlo_misses_rare_worst_case () =
  (* the §1 story: sampling at realistic probabilities rarely surfaces
     the worst probable scenario Raha finds by optimization *)
  let paths, d = mc_setup () in
  let degs, scens = Te.Monte_carlo.sample_degradations ~seed:11 ~samples:500 fig1 paths d in
  let s = Te.Monte_carlo.summarize degs scens in
  let spec =
    { Raha.Bilevel.default_spec with Raha.Bilevel.threshold = Some 1e-5 }
  in
  let options = { Raha.Analysis.default_options with spec } in
  let raha = Raha.Analysis.analyze ~options fig1 paths (Traffic.Envelope.fixed d) in
  Alcotest.(check bool) "raha >= sampled max" true
    (raha.Raha.Analysis.degradation +. 1e-6 >= s.Te.Monte_carlo.max_seen)

let test_summarize_nearest_rank () =
  (* pins the nearest-rank rule: percentile q is the ceil(q*n)-th
     smallest value (regression for an off-by-one that read past the
     intended rank on small n) *)
  let scen n = Array.make n Failure.Scenario.empty in
  let s1 = Te.Monte_carlo.summarize [| 5. |] (scen 1) in
  check_float "n=1 p50" 5. s1.Te.Monte_carlo.p50;
  check_float "n=1 p95" 5. s1.Te.Monte_carlo.p95;
  check_float "n=1 p99" 5. s1.Te.Monte_carlo.p99;
  let s4 = Te.Monte_carlo.summarize [| 4.; 1.; 3.; 2. |] (scen 4) in
  (* ceil(0.5*4)=2nd, ceil(0.95*4)=4th, ceil(0.99*4)=4th smallest *)
  check_float "n=4 p50" 2. s4.Te.Monte_carlo.p50;
  check_float "n=4 p95" 4. s4.Te.Monte_carlo.p95;
  check_float "n=4 p99" 4. s4.Te.Monte_carlo.p99;
  check_float "n=4 max" 4. s4.Te.Monte_carlo.max_seen;
  let v100 = Array.init 100 (fun i -> float_of_int (((i * 37) mod 100) + 1)) in
  let s100 = Te.Monte_carlo.summarize v100 (scen 100) in
  check_float "n=100 p50" 50. s100.Te.Monte_carlo.p50;
  check_float "n=100 p95" 95. s100.Te.Monte_carlo.p95;
  check_float "n=100 p99" 99. s100.Te.Monte_carlo.p99

let test_monte_carlo_deterministic () =
  let paths, d = mc_setup () in
  let a, _ = Te.Monte_carlo.sample_degradations ~seed:3 ~samples:200 fig1 paths d in
  let b, _ = Te.Monte_carlo.sample_degradations ~seed:3 ~samples:200 fig1 paths d in
  Alcotest.(check bool) "same seed same draw" true (a = b)

(* --- max-min bi-level (Appendix A) -------------------------------------- *)

let test_maxmin_bilevel () =
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:0 fig1 [ (1, 3); (2, 3) ] in
  let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let objective = Te.Formulation.Max_min { bins = 3; ratio = 1. } in
  let spec =
    {
      Raha.Bilevel.default_spec with
      Raha.Bilevel.objective;
      max_failures = Some 1;
      encoding = Raha.Bilevel.Strong_duality { levels = 3 };
    }
  in
  let options = { Raha.Analysis.default_options with spec } in
  let r = Raha.Analysis.analyze ~options fig1 paths (Traffic.Envelope.fixed d) in
  Alcotest.(check bool) "optimal" true (r.Raha.Analysis.status = Milp.Solver.Optimal);
  (* the reported total-flow gap must replay exactly in the simulator
     under the same max-min routing *)
  (match Te.Simulate.degradation ~objective fig1 paths d r.Raha.Analysis.scenario with
  | Some replay ->
    Alcotest.(check (float 0.3)) "replayed total-flow gap" replay
      r.Raha.Analysis.degradation
  | None -> Alcotest.fail "replay infeasible");
  (* and it cannot exceed the exhaustive single-failure oracle *)
  let oracle =
    List.fold_left
      (fun acc s ->
        match Te.Simulate.degradation ~objective fig1 paths d s with
        | Some deg -> Float.max acc deg
        | None -> acc)
      0.
      (Failure.Enumerate.up_to_k fig1 ~k:1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "bilevel %.3f <= oracle %.3f" r.Raha.Analysis.degradation oracle)
    true
    (r.Raha.Analysis.degradation <= oracle +. 1e-4)

(* --- encoding equivalence ----------------------------------------------- *)

let prop_encodings_agree =
  (* for fixed demands, KKT and strong duality must find the same
     optimal degradation *)
  QCheck2.Test.make ~name:"KKT and strong-duality encodings agree" ~count:10
    QCheck2.Gen.(
      let* seed = int_range 0 200 in
      let* k = int_range 1 2 in
      return (seed, k))
    (fun (seed, k) ->
      let topo = Wan.Generators.africa_like ~seed ~n:7 () in
      let pairs = [ (0, 4); (1, 5) ] in
      let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 topo pairs in
      let d = Traffic.Demand.of_list (List.map (fun p -> (p, 70.)) pairs) in
      let run encoding =
        let spec =
          { Raha.Bilevel.default_spec with Raha.Bilevel.max_failures = Some k; encoding }
        in
        let options = { Raha.Analysis.default_options with spec } in
        Raha.Analysis.analyze ~options topo paths (Traffic.Envelope.fixed d)
      in
      let sd = run (Raha.Bilevel.Strong_duality { levels = 3 }) in
      let kkt = run Raha.Bilevel.Kkt in
      sd.Raha.Analysis.status = Milp.Solver.Optimal
      && kkt.Raha.Analysis.status = Milp.Solver.Optimal
      && Float.abs (sd.Raha.Analysis.degradation -. kkt.Raha.Analysis.degradation) < 1e-4)

(* --- FFC robust allocation (§2.2's planning baseline) ------------------- *)

let test_ffc_guarantee_holds () =
  let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 fig1 [ (1, 3); (2, 3) ] in
  let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  match Te.Ffc.allocate ~k:1 fig1 paths d with
  | None -> Alcotest.fail "FFC allocation failed"
  | Some r ->
    Alcotest.(check bool) "granted <= demand" true
      (r.Te.Ffc.total_granted <= r.Te.Ffc.total_demand +. 1e-6);
    Alcotest.(check bool) "granted positive" true (r.Te.Ffc.total_granted > 0.);
    check_int "scenarios" 6 r.Te.Ffc.scenarios_considered;
    (* the headline property: the grant survives every single-LAG failure *)
    (match Te.Ffc.verify ~k:1 fig1 paths r with
    | None -> ()
    | Some s -> Alcotest.failf "grant violated by %a" Failure.Scenario.pp s)

let test_ffc_protection_costs_throughput () =
  (* protecting against more failures can only shrink the grant *)
  let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 fig1 [ (1, 3); (2, 3) ] in
  let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let g k =
    match Te.Ffc.allocate ~k fig1 paths d with
    | Some r -> r.Te.Ffc.total_granted
    | None -> Alcotest.fail "allocation failed"
  in
  let g0 = g 0 and g1 = g 1 and g2 = g 2 in
  Alcotest.(check bool) "k=0 grants everything routable" true (g0 >= 16. -. 1e-6);
  Alcotest.(check bool) "monotone k=1" true (g1 <= g0 +. 1e-6);
  Alcotest.(check bool) "monotone k=2" true (g2 <= g1 +. 1e-6)

let test_ffc_beyond_k_still_degrades () =
  (* §2.2: an FFC-protected network is safe for <= k failures but Raha
     still finds probable scenarios beyond k that degrade the grant *)
  let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 fig1 [ (1, 3); (2, 3) ] in
  let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  match Te.Ffc.allocate ~k:1 fig1 paths d with
  | None -> Alcotest.fail "allocation failed"
  | Some r ->
    let grant = Te.Ffc.grant_to_demand r in
    let spec =
      { Raha.Bilevel.default_spec with Raha.Bilevel.max_failures = Some 1 }
    in
    let options = { Raha.Analysis.default_options with spec } in
    let k1 = Raha.Analysis.analyze ~options fig1 paths (Traffic.Envelope.fixed grant) in
    check_float ~eps:1e-4 "safe within its design point" 0. k1.Raha.Analysis.degradation;
    let spec2 =
      { Raha.Bilevel.default_spec with Raha.Bilevel.max_failures = Some 3 }
    in
    let options2 = { Raha.Analysis.default_options with spec = spec2 } in
    let k3 = Raha.Analysis.analyze ~options:options2 fig1 paths (Traffic.Envelope.fixed grant) in
    Alcotest.(check bool)
      (Printf.sprintf "3 failures degrade the protected grant (%.2f)" k3.Raha.Analysis.degradation)
      true
      (k3.Raha.Analysis.degradation > 1e-6)


(* --- inner-encoding unit tests ------------------------------------------ *)

(* A minimal inner LP whose capacity the outer problem controls through a
   binary: max x s.t. x <= 5 - 3*b (outer binary b). The outer objective
   is MINUS the inner optimum, so without the optimality conditions the
   solver would push x to 0; with them, x must equal the true optimum
   (5 at b=0, 2 at b=1) and the outer picks b=1. *)
let tiny_spec (b : Milp.Model.var) =
  {
    Te.Lp_spec.sense = Te.Lp_spec.Max;
    cols = [| { Te.Lp_spec.cname = "x"; obj = 1.; ub_hint = 5. } |];
    rows =
      [|
        {
          Te.Lp_spec.rname = "cap";
          terms = [ (0, 1.) ];
          rel = Te.Lp_spec.Le;
          rhs = Te.Lp_spec.Outer (Milp.Linexpr.of_terms ~const:5. [ (-3., b.Milp.Model.vid) ]);
          slack_bound = 5.;
        };
      |];
    dual_bound = 1.;
  }

let encoding_forces_optimality encode =
  let m = Milp.Model.create () in
  let b = Milp.Model.binary m "b" in
  let inner = encode m ~prefix:"t" (tiny_spec b) in
  (* adversary minimizes the inner optimum *)
  Milp.Model.set_objective m Milp.Model.Maximize
    (Milp.Linexpr.neg inner.Raha.Inner.objective);
  let sol = Milp.Solver.solve m in
  Alcotest.(check bool) "optimal" true (sol.Milp.Solver.status = Milp.Solver.Optimal);
  Alcotest.(check bool) "adversary picks b=1" true (Milp.Solver.bool_value sol b);
  (* the inner variable must sit at ITS optimum (2), not at 0 *)
  Alcotest.(check (float 1e-5)) "inner forced to its optimum" 2.
    (Milp.Linexpr.eval sol.Milp.Solver.values inner.Raha.Inner.objective)

let test_kkt_forces_optimality () = encoding_forces_optimality Raha.Inner.encode_kkt

let test_sd_forces_optimality () =
  encoding_forces_optimality Raha.Inner.encode_strong_duality

let test_primal_only_does_not_force () =
  (* sanity check of the test itself: with primal feasibility alone the
     adversary CAN push the inner variable to 0 *)
  let m = Milp.Model.create () in
  let b = Milp.Model.binary m "b" in
  let inner = Raha.Inner.embed_primal m ~prefix:"t" (tiny_spec b) in
  Milp.Model.set_objective m Milp.Model.Maximize
    (Milp.Linexpr.neg inner.Raha.Inner.objective);
  let sol = Milp.Solver.solve m in
  Alcotest.(check (float 1e-6)) "primal-only collapses to 0" 0.
    (Milp.Linexpr.eval sol.Milp.Solver.values inner.Raha.Inner.objective)

let test_sd_rejects_continuous_outer () =
  (* strong duality must reject a continuous outer variable in an rhs *)
  let m = Milp.Model.create () in
  let c = Milp.Model.continuous ~ub:5. m "c" in
  let spec =
    {
      Te.Lp_spec.sense = Te.Lp_spec.Max;
      cols = [| { Te.Lp_spec.cname = "x"; obj = 1.; ub_hint = 5. } |];
      rows =
        [|
          {
            Te.Lp_spec.rname = "cap";
            terms = [ (0, 1.) ];
            rel = Te.Lp_spec.Le;
            rhs = Te.Lp_spec.Outer (Milp.Linexpr.var c.Milp.Model.vid);
            slack_bound = 5.;
          };
        |];
      dual_bound = 1.;
    }
  in
  match Raha.Inner.encode_strong_duality m ~prefix:"t" spec with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "continuous outer var accepted"

let suite =
  [
    ("monte carlo distribution", `Quick, test_monte_carlo_distribution);
    ("monte carlo misses rare worst case", `Quick, test_monte_carlo_misses_rare_worst_case);
    ("monte carlo deterministic", `Quick, test_monte_carlo_deterministic);
    ("summarize nearest-rank percentiles", `Quick, test_summarize_nearest_rank);
    ("maxmin bilevel", `Quick, test_maxmin_bilevel);
    ("kkt forces inner optimality", `Quick, test_kkt_forces_optimality);
    ("strong duality forces inner optimality", `Quick, test_sd_forces_optimality);
    ("primal-only collapses (control)", `Quick, test_primal_only_does_not_force);
    ("strong duality rejects continuous outer", `Quick, test_sd_rejects_continuous_outer);
    ("ffc guarantee holds", `Quick, test_ffc_guarantee_holds);
    ("ffc protection costs throughput", `Quick, test_ffc_protection_costs_throughput);
    ("ffc beyond k still degrades", `Quick, test_ffc_beyond_k_still_degrades);
    QCheck_alcotest.to_alcotest prop_encodings_agree;
  ]
