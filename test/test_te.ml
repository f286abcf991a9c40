(* TE formulation and direct-simulation tests, validated against the
   hand-solved Fig. 1 example. *)

let check_float ?(eps = 1e-6) what expected got =
  Alcotest.(check (float eps)) what expected got

let fig1 = Wan.Generators.fig1 ()

(* A=0 B=1 C=2 D=3; pairs B->D, C->D. Figure 1 configures two usable
   paths per pair (the healthy network routes all 22 units, so both are
   primaries). *)
let fig1_paths () =
  Netpath.Path_set.compute ~n_primary:2 ~n_backup:0 fig1 [ (1, 3); (2, 3) ]

let d12_10 = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ]

let scenario links = Failure.Scenario.of_links fig1 links

let perf = function
  | Some (r : Te.Simulate.result) -> r.Te.Simulate.performance
  | None -> Alcotest.fail "expected feasible routing"

let test_healthy_routes_all () =
  let paths = fig1_paths () in
  check_float "healthy carries 22" 22. (perf (Te.Simulate.healthy fig1 paths d12_10))

let test_fig1_fixed_demand_failures () =
  let paths = fig1_paths () in
  (* paper scenario (a): failing BD (lag 0) leaves 15 *)
  check_float "fail BD -> 15" 15.
    (perf (Te.Simulate.route fig1 paths d12_10 (scenario [ (0, 0) ])));
  (* failing AD (lag 2) leaves 16 *)
  check_float "fail AD -> 16" 16.
    (perf (Te.Simulate.route fig1 paths d12_10 (scenario [ (2, 0) ])));
  (* failing CD (lag 1) leaves 16 *)
  check_float "fail CD -> 16" 16.
    (perf (Te.Simulate.route fig1 paths d12_10 (scenario [ (1, 0) ])))

let test_fig1_degradation () =
  let paths = fig1_paths () in
  (* worst single-link failure for fixed (12,10): BD, degradation 7 *)
  let worst =
    List.fold_left
      (fun acc s ->
        match Te.Simulate.degradation fig1 paths d12_10 s with
        | Some d -> Float.max acc d
        | None -> acc)
      0.
      (Failure.Enumerate.up_to_k fig1 ~k:1)
  in
  check_float "worst fixed-demand degradation is 7" 7. worst

let test_fig1_naive_vs_raha_demands () =
  let paths = fig1_paths () in
  (* naive worst demands (6,5): healthy 11, worst failure leaves 10 *)
  let d65 = Traffic.Demand.of_list [ ((1, 3), 6.); ((2, 3), 5.) ] in
  check_float "healthy (6,5) = 11" 11. (perf (Te.Simulate.healthy fig1 paths d65));
  check_float "fail CD at (6,5) -> 10" 10.
    (perf (Te.Simulate.route fig1 paths d65 (scenario [ (1, 0) ])));
  (* Raha demands (13,12): healthy 25, failing AD leaves 16 -> gap 9 *)
  let d1312 = Traffic.Demand.of_list [ ((1, 3), 13.); ((2, 3), 12.) ] in
  check_float "healthy (13,12) = 25" 25. (perf (Te.Simulate.healthy fig1 paths d1312));
  check_float "fail AD at (13,12) -> 16" 16.
    (perf (Te.Simulate.route fig1 paths d1312 (scenario [ (2, 0) ])));
  check_float "degradation 9" 9.
    (Option.get (Te.Simulate.degradation fig1 paths d1312 (scenario [ (2, 0) ])))

let test_backup_only_when_primary_down () =
  (* the backup path BAD may only be used once BD is down: with BD up but
     congested, traffic must NOT overflow onto BAD in the healthy network
     ... but the failed network can use it when BD fails. *)
  let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 fig1 [ (1, 3); (2, 3) ] in
  let d = Traffic.Demand.of_list [ ((1, 3), 20.) ] in
  (* healthy: only the primary BD (cap 8) counts *)
  check_float "primary only" 8. (perf (Te.Simulate.healthy fig1 paths d));
  (* BD down: backup BAD (min(BA 5, AD 9) = 5) takes over *)
  check_float "backup after failure" 5.
    (perf (Te.Simulate.route fig1 paths d (scenario [ (0, 0) ])))

let test_availability () =
  let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 fig1 [ (1, 3); (2, 3) ] in
  let bd = Netpath.Path_set.find paths ~src:1 ~dst:3 in
  let a0 = Te.Simulate.availability fig1 bd Failure.Scenario.empty in
  Alcotest.(check (array bool)) "no failure: primary only" [| true; false |] a0;
  let a1 = Te.Simulate.availability fig1 bd (scenario [ (0, 0) ]) in
  Alcotest.(check (array bool)) "primary down: backup active" [| true; true |] a1

let test_naive_failover_weaker () =
  (* naive fail-over can never beat optimal fail-over *)
  let paths = fig1_paths () in
  let h = Option.get (Te.Simulate.healthy fig1 paths d12_10) in
  List.iter
    (fun s ->
      let opt = Te.Simulate.route fig1 paths d12_10 s in
      let naive =
        Te.Simulate.route ~reaction:Te.Simulate.Naive_failover ~healthy:h fig1 paths
          d12_10 s
      in
      match (opt, naive) with
      | Some o, Some n ->
        Alcotest.(check bool)
          "naive <= optimal" true
          (n.Te.Simulate.performance <= o.Te.Simulate.performance +. 1e-6)
      | _ -> Alcotest.fail "expected feasible")
    (Failure.Enumerate.up_to_k fig1 ~k:1)

let test_naive_failover_rows () =
  (* 2 primaries + 1 backup per pair: primary j is capped by healthy
     primary j, the backup (j=2) by healthy primary 0. The healthy
     index's columns are shifted by 100 so the rhs shows which healthy
     column [cap] received. *)
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 fig1 [ (1, 3); (2, 3) ] in
  let _, index =
    Te.Formulation.build ~objective:Te.Formulation.Total_flow ~topo:fig1 ~paths
      ~lag_cap:(fun e -> Te.Lp_spec.Const (Wan.Lag.capacity (Wan.Topology.lag fig1 e)))
      ~demand:(fun ~src ~dst -> Te.Lp_spec.Const (Traffic.Demand.volume d12_10 ~src ~dst))
      ~d_max:12. ()
  in
  let shift (pc : Te.Formulation.pair_cols) =
    { pc with Te.Formulation.path_cols = Array.map (( + ) 100) pc.Te.Formulation.path_cols }
  in
  let healthy_index =
    { index with Te.Formulation.pair_arr = Array.map shift index.Te.Formulation.pair_arr }
  in
  let rows =
    Te.Formulation.naive_failover_rows index ~healthy_index
      ~cap:(fun c -> Te.Lp_spec.Const (float_of_int c))
      ~d_max:12.
  in
  let got =
    List.map
      (fun (r : Te.Lp_spec.row) ->
        let rhs =
          match r.Te.Lp_spec.rhs with
          | Te.Lp_spec.Const c -> int_of_float c
          | Te.Lp_spec.Outer _ -> Alcotest.fail "constant cap expected"
        in
        Alcotest.(check bool) "<= row" true (r.Te.Lp_spec.rel = Te.Lp_spec.Le);
        check_float "slack bound d_max" 12. r.Te.Lp_spec.slack_bound;
        (r.Te.Lp_spec.rname, r.Te.Lp_spec.terms, rhs))
      rows
  in
  Alcotest.(check (list (triple string (list (pair int (float 0.))) int)))
    "name, capped column, healthy column"
    [
      ("naive_k1_p2", [ (5, 1.) ], 103);
      ("naive_k1_p1", [ (4, 1.) ], 104);
      ("naive_k1_p0", [ (3, 1.) ], 103);
      ("naive_k0_p2", [ (2, 1.) ], 100);
      ("naive_k0_p1", [ (1, 1.) ], 101);
      ("naive_k0_p0", [ (0, 1.) ], 100);
    ]
    got

let test_mlu_objective () =
  (* 1 primary + 1 backup: healthy MLU uses only the primaries *)
  let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 fig1 [ (1, 3); (2, 3) ] in
  let d = Traffic.Demand.of_list [ ((1, 3), 4.); ((2, 3), 4.) ] in
  let mlu = Te.Formulation.Mlu { u_max = 10. } in
  let h = perf (Te.Simulate.healthy ~objective:mlu fig1 paths d) in
  (* both primaries have capacity 8, demand 4 -> MLU 0.5 *)
  check_float "healthy MLU" 0.5 h;
  (* failing BD forces B's traffic onto BAD: BA carries 4/5 = 0.8 *)
  let f = perf (Te.Simulate.route ~objective:mlu fig1 paths d (scenario [ (0, 0) ])) in
  check_float "failed MLU" 0.8 f;
  check_float "MLU degradation" 0.3
    (Option.get (Te.Simulate.degradation ~objective:mlu fig1 paths d (scenario [ (0, 0) ])));
  (* failing CD is even worse: CAD's CA link carries 4/4 = 1.0 *)
  check_float "fail CD MLU" 1.0
    (perf (Te.Simulate.route ~objective:mlu fig1 paths d (scenario [ (1, 0) ])))

let test_mlu_infeasible_when_disconnected () =
  let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 fig1 [ (1, 3); (2, 3) ] in
  let d = Traffic.Demand.of_list [ ((1, 3), 4.) ] in
  let mlu = Te.Formulation.Mlu { u_max = 10. } in
  (* both BD and AD down: B cannot reach D at all -> infeasible *)
  let r = Te.Simulate.route ~objective:mlu fig1 paths d (scenario [ (0, 0); (2, 0) ]) in
  Alcotest.(check bool) "infeasible" true (r = None)

let test_max_min_binner () =
  (* two pairs share one bottleneck: max-min splits it evenly, while
     total-flow may starve one pair. Topology: s1->t, s2->t over a shared
     LAG of capacity 10. *)
  let t =
    Wan.Topology.create ~name:"shared" ~num_nodes:4
      [
        Wan.Lag.uniform ~id:0 ~src:0 ~dst:2 ~n:1 ~capacity:100. ~fail_prob:0.01;
        Wan.Lag.uniform ~id:1 ~src:1 ~dst:2 ~n:1 ~capacity:100. ~fail_prob:0.01;
        Wan.Lag.uniform ~id:2 ~src:2 ~dst:3 ~n:1 ~capacity:10. ~fail_prob:0.01;
      ]
  in
  let paths = Netpath.Path_set.compute ~n_primary:1 ~n_backup:0 t [ (0, 3); (1, 3) ] in
  let d = Traffic.Demand.of_list [ ((0, 3), 10.); ((1, 3), 10.) ] in
  let mm = Te.Formulation.Max_min { bins = 4; ratio = 1. } in
  let r = Option.get (Te.Simulate.healthy ~objective:mm t paths d) in
  (* total is 10 either way; fairness shows in the per-pair split *)
  check_float "total" 10. r.Te.Simulate.performance;
  let f0 = Te.Formulation.pair_flow r.Te.Simulate.index 0 r.Te.Simulate.flows in
  let f1 = Te.Formulation.pair_flow r.Te.Simulate.index 1 r.Te.Simulate.flows in
  check_float ~eps:0.26 "even split 0" 5. f0;
  check_float ~eps:0.26 "even split 1" 5. f1

(* qcheck: simulated degradation is always >= 0 and <= healthy flow *)
let prop_degradation_bounds =
  QCheck2.Test.make ~name:"simulate: 0 <= degradation <= healthy" ~count:60
    QCheck2.Gen.(
      let* seed = int_range 0 999 in
      let* k = int_range 0 2 in
      return (seed, k))
    (fun (seed, k) ->
      let t = Wan.Generators.africa_like ~seed ~n:8 () in
      let rng = Random.State.make [| seed + 1 |] in
      let pairs = [ (0, 5); (1, 6) ] in
      let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 t pairs in
      let d =
        Traffic.Demand.of_list
          (List.map (fun p -> (p, 10. +. Random.State.float rng 90.)) pairs)
      in
      let h =
        match Te.Simulate.healthy t paths d with Some r -> r.Te.Simulate.performance | None -> -1.
      in
      if h < 0. then false
      else begin
        let links = ref [] in
        let lags = Wan.Topology.lags t in
        for _ = 1 to k do
          let e = Random.State.int rng (Array.length lags) in
          let l = Random.State.int rng (Wan.Lag.num_links lags.(e)) in
          if not (List.mem (e, l) !links) then links := (e, l) :: !links
        done;
        let s = Failure.Scenario.of_links t !links in
        match Te.Simulate.degradation t paths d s with
        | Some deg -> deg >= -1e-6 && deg <= h +. 1e-6
        | None -> false
      end)

let suite =
  [
    ("healthy routes all", `Quick, test_healthy_routes_all);
    ("fig1 fixed-demand failures", `Quick, test_fig1_fixed_demand_failures);
    ("fig1 degradation", `Quick, test_fig1_degradation);
    ("fig1 naive vs raha demands", `Quick, test_fig1_naive_vs_raha_demands);
    ("backup gating", `Quick, test_backup_only_when_primary_down);
    ("availability", `Quick, test_availability);
    ("naive failover weaker", `Quick, test_naive_failover_weaker);
    ("naive failover rows", `Quick, test_naive_failover_rows);
    ("mlu objective", `Quick, test_mlu_objective);
    ("mlu infeasible when disconnected", `Quick, test_mlu_infeasible_when_disconnected);
    ("max-min binner", `Quick, test_max_min_binner);
    QCheck_alcotest.to_alcotest prop_degradation_bounds;
  ]
