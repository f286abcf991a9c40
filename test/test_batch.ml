(* Differential tests for the batched scenario engine (DESIGN.md §12).

   Every overlay answer of a Monte Carlo or enumeration sweep agrees
   with the independent Te.Simulate.degradation oracle (its own
   formulation, cold solve) to solver tolerance — the LPs differ
   structurally, so vertices and last bits may differ, objective values
   may not. The warm=cold property is checked at objective/status level
   over the random-LP corpus. *)

let bits = Array.map Int64.bits_of_float

let wan () =
  let topo = Wan.Generators.africa_like ~seed:5 ~n:8 () in
  let pairs = [ (0, 5); (1, 6); (2, 7) ] in
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 topo pairs in
  let demand =
    Traffic.Demand.of_list
      (List.map (fun p -> (p, Wan.Topology.avg_lag_capacity topo *. 0.65)) pairs)
  in
  (topo, paths, demand)

let scenario_eq = Failure.Scenario.equal

(* [engine] against the oracle for [scenario], within 1e-6 relative;
   [infeasible] is the value the sweep reports when the oracle finds no
   routing *)
let check_oracle ~objective ~what ~infeasible (topo, paths, demand) scenario engine =
  match Te.Simulate.degradation ~objective topo paths demand scenario with
  | Some d ->
    if Float.abs (d -. engine) > 1e-6 *. (1. +. Float.abs d) then
      Alcotest.failf "%s: oracle %.12g vs engine %.12g" what d engine
  | None ->
    if Int64.bits_of_float engine <> Int64.bits_of_float infeasible then
      Alcotest.failf "%s: oracle infeasible, engine %.12g" what engine

(* --- Monte Carlo == the oracle -------------------------------------------- *)

(* [wan ()] with every link failing with probability 0.3: a sample
   often takes a whole LAG down, which opens the backup of a pair whose
   path crosses it *)
let flaky_wan () =
  let topo, paths, demand = wan () in
  let flaky t (lag : Wan.Lag.t) =
    Wan.Topology.with_lag_links t ~lag_id:lag.Wan.Lag.lag_id
      (List.map (fun l -> { l with Wan.Lag.fail_prob = 0.3 }) (Array.to_list lag.Wan.Lag.links))
  in
  (Array.fold_left flaky topo (Wan.Topology.lags topo), paths, demand)

(* some pair may use a backup path in [s] *)
let opens_backup topo paths s =
  List.exists
    (fun p ->
      let avail = Te.Simulate.availability topo p s and k = Netpath.Path_set.num_primary p in
      Array.exists Fun.id (Array.sub avail k (Array.length avail - k)))
    paths

let test_mc_differential objective () =
  let ((topo, paths, demand) as net) = flaky_wan () in
  let samples = 512 in
  let wh0 = Milp.Lp_stats.read Milp.Lp_stats.batch_warm_hits () in
  let ref_degs, ref_scens =
    Te.Monte_carlo.sample_degradations ~objective ~seed:7 ~samples topo paths demand
  in
  (* the warm path must actually have been taken, not cold-fallen-back *)
  Alcotest.(check bool)
    "nonzero batched warm hits" true
    (Milp.Lp_stats.read Milp.Lp_stats.batch_warm_hits () > wh0);
  let healthy =
    match Te.Simulate.prepare ~objective topo paths demand with
    | Some eng -> (Te.Simulate.engine_healthy eng).Te.Simulate.performance
    | None -> Alcotest.fail "healthy network must route the demand"
  in
  Array.iteri
    (fun i s ->
      check_oracle ~objective ~what:(Printf.sprintf "sample %d" i) ~infeasible:healthy net
        s ref_degs.(i))
    ref_scens;
  (* the oracle must have seen more than whole-LAG failures, and many
     samples that open a backup path *)
  Alcotest.(check bool)
    "some sample fails several links" true
    (Array.exists (fun s -> Failure.Scenario.num_failed s >= 2) ref_scens);
  let opening =
    Array.fold_left (fun n s -> if opens_backup topo paths s then n + 1 else n) 0 ref_scens
  in
  Alcotest.(check bool)
    (Printf.sprintf "a quarter of the samples open a backup (%d of %d)" opening samples)
    true (4 * opening >= samples)

(* --- enumeration: worst case == the oracle ------------------------------ *)

let test_enum_differential () =
  let ((topo, paths, demand) as net) = wan () in
  List.iter
    (fun k ->
      let r = Raha.Baselines.enumerate_failures ~k topo paths demand in
      Alcotest.(check int)
        (Printf.sprintf "k=%d: scenario count" k)
        (List.length (Failure.Enumerate.up_to_k topo ~k))
        r.Raha.Baselines.scenarios_evaluated;
      check_oracle ~objective:Te.Formulation.Total_flow
        ~what:(Printf.sprintf "k=%d worst" k) ~infeasible:neg_infinity net
        r.Raha.Baselines.worst_scenario r.Raha.Baselines.worst)
    [ 1; 2 ]

(* --- engine vs the independent Simulate.route path -------------------- *)

(* The empty scenario and every whole-LAG failure. *)
let lag_scenarios topo =
  let whole_lag e =
    let lag = Wan.Topology.lag topo e in
    Failure.Scenario.of_links topo
      (List.init (Wan.Lag.num_links lag) (fun i -> (e, i)))
  in
  Failure.Scenario.empty :: List.init (Wan.Topology.num_lags topo) whole_lag

(* The per-scenario path builds a structurally different LP (no
   extension rows for open paths), so vertices — hence flows — may
   differ; the optimal objective value must agree to solver tolerance,
   here over the empty scenario and every whole-LAG failure. *)
let test_engine_vs_route objective () =
  let topo, paths, demand = wan () in
  let eng =
    match Te.Simulate.prepare ~objective topo paths demand with
    | Some e -> e
    | None -> Alcotest.fail "healthy network must route the demand"
  in
  List.iteri
    (fun i s ->
      let legacy = Te.Simulate.degradation ~objective topo paths demand s in
      let engine = Te.Simulate.degradation_prepared eng s in
      match (legacy, engine) with
      | None, None -> ()
      | Some dl, Some de ->
        let eps = 1e-6 *. (1. +. Float.abs dl) in
        if Float.abs (dl -. de) > eps then
          Alcotest.failf "scenario %d: legacy %.12g vs engine %.12g" i dl de
      | Some _, None | None, Some _ ->
        Alcotest.failf "scenario %d: feasibility verdicts disagree" i)
    (lag_scenarios topo)

(* Every overlay the engine solves is audited, the healthy one included:
   after [prepare] and n routes, the overlay and certify-check counters
   moved by the same n + 1. *)
let test_every_overlay_audited () =
  let topo, paths, demand = wan () in
  let read c = Milp.Lp_stats.read c () in
  let o0 = read Milp.Lp_stats.batch_overlays
  and c0 = read Milp.Lp_stats.certify_checks in
  let eng =
    match Te.Simulate.prepare topo paths demand with
    | Some e -> e
    | None -> Alcotest.fail "healthy network must route the demand"
  in
  let scenarios = lag_scenarios topo in
  List.iteri
    (fun i s ->
      if Option.is_none (Te.Simulate.route_prepared eng s) then
        Alcotest.failf "scenario %d: total flow must route" i)
    scenarios;
  let overlays = read Milp.Lp_stats.batch_overlays - o0 in
  Alcotest.(check int) "one overlay per prepare and route"
    (List.length scenarios + 1) overlays;
  Alcotest.(check int) "overlays = certify-checks" overlays
    (read Milp.Lp_stats.certify_checks - c0)

(* --- sweeps: one overlay per distinct patch ---------------------------- *)

let objectives =
  [
    ("total flow", Te.Formulation.Total_flow);
    ("max-min", Te.Formulation.Max_min { bins = 3; ratio = 1. });
    ("mlu", Te.Formulation.Mlu { u_max = 10. });
  ]

let prepared ~objective topo paths demand =
  match Te.Simulate.prepare ~objective topo paths demand with
  | Some e -> e
  | None -> Alcotest.fail "healthy network must route the demand"

let whole_lag topo e =
  Failure.Scenario.of_links topo
    (List.init (Wan.Lag.num_links (Wan.Topology.lag topo e)) (fun i -> (e, i)))

(* LAGs some path crosses, and the rest *)
let lags_by_use topo paths =
  let used e =
    List.exists
      (fun p ->
        List.exists
          (fun path -> Netpath.Path.mem_lag path e)
          (Netpath.Path_set.all_paths p))
      paths
  in
  List.partition used (List.init (Wan.Topology.num_lags topo) Fun.id)

(* [n] scenarios drawn from a small pool, so most recur: the empty
   scenario, every prefix of every LAG's links (one link up to the
   whole LAG: equal rows, different capacities), every LAG's last link
   alone and random multi-link failures *)
let duplicate_heavy topo n =
  let rng = Random.State.make [| 0xd0b |] in
  let random_links () =
    let links = ref [] in
    Array.iter
      (fun (lag : Wan.Lag.t) ->
        Array.iteri
          (fun i _ ->
            if Random.State.float rng 1. < 0.2 then links := (lag.Wan.Lag.lag_id, i) :: !links)
          lag.Wan.Lag.links)
      (Wan.Topology.lags topo);
    Failure.Scenario.of_links topo !links
  in
  let per_lag =
    List.concat_map
      (fun (lag : Wan.Lag.t) ->
        let e = lag.Wan.Lag.lag_id and n = Wan.Lag.num_links lag in
        Failure.Scenario.of_links topo [ (e, n - 1) ]
        :: List.init n (fun m -> Failure.Scenario.of_links topo (List.init (m + 1) (fun i -> (e, i)))))
      (Array.to_list (Wan.Topology.lags topo))
  in
  let base =
    Array.of_list
      ((Failure.Scenario.empty :: per_lag) @ List.init 8 (fun _ -> random_links ()))
  in
  Array.init n (fun _ -> base.(Random.State.int rng (Array.length base)))

let test_sweep_equals_map () =
  let topo, paths, demand = wan () in
  let scenarios = duplicate_heavy topo 200 in
  List.iter
    (fun (name, objective) ->
      let eng = prepared ~objective topo paths demand in
      let one = Array.map (Te.Simulate.degradation_prepared eng) scenarios in
      let show = Array.map (function Some d -> Printf.sprintf "%h" d | None -> "none") in
      Alcotest.(check (array string))
        (Printf.sprintf "%s: sweep = map" name)
        (show one)
        (show (Te.Simulate.degradations_prepared eng scenarios)))
    objectives

(* 40 copies of one on-path failure among failures of links no path
   crosses: two distinct patches (the healthy one and the on-path one),
   so two overlays and two audits. *)
let test_sweep_solves_distinct_patches () =
  let topo, paths, demand = wan () in
  let on_path, off_path = lags_by_use topo paths in
  if off_path = [] then Alcotest.fail "the test network needs a LAG no path crosses";
  let hit = whole_lag topo (List.hd on_path) in
  let misses =
    List.concat_map
      (fun e ->
        List.init (Wan.Lag.num_links (Wan.Topology.lag topo e)) (fun i ->
            Failure.Scenario.of_links topo [ (e, i) ]))
      off_path
  in
  let scenarios =
    Array.of_list (List.concat (List.init 40 (fun _ -> [ hit ])) @ misses @ [ hit ])
  in
  let read c = Milp.Lp_stats.read c () in
  List.iter
    (fun (name, objective) ->
      let eng = prepared ~objective topo paths demand in
      let o0 = read Milp.Lp_stats.batch_overlays
      and c0 = read Milp.Lp_stats.certify_checks in
      ignore (Te.Simulate.degradations_prepared eng scenarios);
      Alcotest.(check int) (name ^ ": overlays") 2 (read Milp.Lp_stats.batch_overlays - o0);
      Alcotest.(check int) (name ^ ": audits") 2 (read Milp.Lp_stats.certify_checks - c0))
    objectives

(* --- delta patches == the full patches of a healthy-agnostic base ------ *)

(* An engine built from public calls with the full-patch layout: every
   extension row open at d_max in the base, and every overlay rewriting
   every capacity row (live capacities) and every blocked extension row
   (to 0). The engine's delta patches on the healthy base must give the
   same right-hand sides, hence the same flows, bit for bit. *)
let full_patch_flows ~objective topo paths demand =
  let d_max =
    List.fold_left (fun acc (_, v) -> Float.max acc v) 1. (Traffic.Demand.entries demand)
  in
  let spec, index =
    Te.Formulation.build ~objective ~topo ~paths
      ~lag_cap:(fun e -> Te.Formulation.C (Wan.Lag.capacity (Wan.Topology.lag topo e)))
      ~demand:(fun ~src ~dst -> Te.Formulation.C (Traffic.Demand.volume demand ~src ~dst))
      ~path_cap:(fun ~pair:_ ~path:_ -> Some (Te.Formulation.C d_max))
      ~d_max ()
  in
  let model, _ = Te.Lp_spec.to_model spec in
  let batch = Milp.Batch.prepare model in
  let mlu = match objective with Te.Formulation.Mlu _ -> true | _ -> false in
  let full_patch s =
    let caps =
      if mlu then []
      else
        List.filter_map
          (fun (e, row) ->
            if row >= 0 then Some (row, Failure.Scenario.lag_capacity topo s e) else None)
          (List.mapi (fun e row -> (e, row)) (Array.to_list index.Te.Formulation.cap_rows))
    in
    let blocked =
      List.concat
        (List.mapi
           (fun k p ->
             let avail = Te.Simulate.availability topo p s in
             List.concat
               (List.mapi
                  (fun j path ->
                    if
                      (not avail.(j))
                      || mlu
                         && Failure.Scenario.path_down topo s (Netpath.Path.lag_list path)
                    then [ (index.Te.Formulation.ext_rows.(k).(j), 0.) ]
                    else [])
                  (Netpath.Path_set.all_paths p)))
           paths)
    in
    caps @ blocked
  in
  let warm =
    match Milp.Batch.solve ~patch:(full_patch Failure.Scenario.empty) batch with
    | { Milp.Batch.basis = Some b; _ } -> b
    | _ -> Alcotest.fail "full-patch engine: healthy solve has no basis"
  in
  fun s ->
    match (Milp.Batch.solve ~warm ~patch:(full_patch s) batch).Milp.Batch.result with
    | Milp.Simplex.Optimal { values; _ } ->
      Some (Array.sub values 0 (Array.length spec.Te.Lp_spec.cols))
    | _ -> None

let test_delta_patch_exact () =
  let nets =
    [
      ("africa_like", wan ());
      (let topo = Wan.Generators.grid ~links_per_lag:3 ~fail_prob:0.1 3 3 in
       let pairs = [ (0, 8); (2, 6); (1, 7) ] in
       let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 topo pairs in
       let demand =
         Traffic.Demand.of_list
           (List.map (fun p -> (p, Wan.Topology.avg_lag_capacity topo *. 0.8)) pairs)
       in
       ("grid", (topo, paths, demand)));
    ]
  in
  List.iter
    (fun (net, (topo, paths, demand)) ->
      let scenarios = duplicate_heavy topo 60 in
      List.iter
        (fun (name, objective) ->
          let eng = prepared ~objective topo paths demand in
          let reference = full_patch_flows ~objective topo paths demand in
          Array.iteri
            (fun i s ->
              let what = Printf.sprintf "%s, %s, scenario %d" net name i in
              match (reference s, Te.Simulate.route_prepared eng s) with
              | Some xs, Some r ->
                Alcotest.(check (array int64)) what (bits xs) (bits r.Te.Simulate.flows)
              | None, None -> ()
              | _ -> Alcotest.failf "%s: feasibility verdicts disagree" what)
            scenarios)
        objectives)
    nets

(* --- warm overlay == cold overlay over the random-LP corpus ----------- *)

(* Perturb the base rhs (random scalings, plus hard zeros — the
   degenerate "capacity wiped out" case), then compare the warm dual
   solve from the base optimal basis against a cold solve of the same
   overlay: status and objective must agree, and the independent
   Batch.check audit must accept the warm answer. The corpus rows are
   [Le] with nonnegative rhs and finite variable bounds, so every
   overlay stays feasible and bounded. *)
let prop_warm_equals_cold =
  QCheck2.Test.make ~name:"warm overlay solve equals cold solve" ~count:64
    QCheck2.Gen.(pair (int_range 0 63) int)
    (fun (case, pseed) ->
      let mdl = Test_revised.random_milp case in
      let batch = Milp.Batch.prepare mdl in
      let base = Milp.Batch.base_rhs batch in
      let warm_basis =
        match Milp.Batch.solve batch with
        | { Milp.Batch.result = Milp.Simplex.Optimal _; basis = Some b; _ } -> b
        | _ -> QCheck2.Test.fail_reportf "case %d: base solve not optimal" case
      in
      let rng = Random.State.make [| 0xba7c4; case; pseed |] in
      let patch =
        List.filter_map Fun.id
          (List.init (Array.length base) (fun i ->
               match Random.State.int rng 4 with
               | 0 -> None (* keep the base value *)
               | 1 -> Some (i, 0.) (* degenerate: capacity wiped out *)
               | _ -> Some (i, base.(i) *. Random.State.float rng 2.)))
      in
      let warm = Milp.Batch.solve ~warm:warm_basis ~patch batch in
      let cold = Milp.Batch.solve ~patch batch in
      (match (warm.Milp.Batch.result, cold.Milp.Batch.result) with
      | Milp.Simplex.Optimal { obj = ow; values }, Milp.Simplex.Optimal { obj = oc; _ }
        ->
        let eps = 1e-6 *. (1. +. Float.abs oc) in
        if Float.abs (ow -. oc) > eps then
          QCheck2.Test.fail_reportf "case %d: warm obj %.12g vs cold %.12g" case
            ow oc;
        (match Milp.Batch.check ~patch ~obj:ow ~values batch with
        | Ok () -> ()
        | Error msg ->
          QCheck2.Test.fail_reportf "case %d: warm audit failed: %s" case msg)
      | Milp.Simplex.Infeasible, Milp.Simplex.Infeasible -> ()
      | rw, rc ->
        let s = function
          | Milp.Simplex.Optimal _ -> "optimal"
          | Milp.Simplex.Infeasible -> "infeasible"
          | Milp.Simplex.Unbounded -> "unbounded"
          | Milp.Simplex.Iter_limit -> "iter-limit"
        in
        QCheck2.Test.fail_reportf "case %d: warm %s vs cold %s" case (s rw)
          (s rc));
      true)

(* --- shared structure is immutable under concurrent overlays ---------- *)

let test_shared_structure_immutable () =
  let mdl = Test_revised.random_milp 3 in
  let batch = Milp.Batch.prepare mdl in
  let sp = Milp.Simplex.prep_sparse (Milp.Batch.prep batch) in
  let snap_colptr = Array.copy sp.Milp.Sparse.colptr
  and snap_rowind = Array.copy sp.Milp.Sparse.rowind
  and snap_values = Array.copy sp.Milp.Sparse.values
  and snap_b = Array.copy sp.Milp.Sparse.b
  and snap_cost = Array.copy sp.Milp.Sparse.cost
  and snap_slo = Array.copy sp.Milp.Sparse.slack_lo
  and snap_shi = Array.copy sp.Milp.Sparse.slack_hi in
  let warm_basis =
    match Milp.Batch.solve batch with
    | { Milp.Batch.result = Milp.Simplex.Optimal _; basis = Some b; _ } -> b
    | _ -> Alcotest.fail "base solve not optimal"
  in
  let base = Milp.Batch.base_rhs batch in
  let patches =
    Array.init 64 (fun i ->
        let rng = Random.State.make [| 0x5eed; i |] in
        List.init (Array.length base) (fun r ->
            (r, base.(r) *. Random.State.float rng 2.)))
  in
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      let outcomes =
        Parallel.Pool.map_array pool
          (fun patch ->
            match Milp.Batch.solve ~warm:warm_basis ~patch batch with
            | { Milp.Batch.result = Milp.Simplex.Optimal _; _ } -> true
            | _ -> false)
          patches
      in
      Alcotest.(check bool)
        "every overlay solved" true
        (Array.for_all Fun.id outcomes));
  let check name snap now =
    Alcotest.(check bool) (name ^ " unchanged") true (snap = now)
  in
  check "colptr" snap_colptr sp.Milp.Sparse.colptr;
  check "rowind" snap_rowind sp.Milp.Sparse.rowind;
  check "b" (bits snap_b) (bits sp.Milp.Sparse.b);
  check "values" (bits snap_values) (bits sp.Milp.Sparse.values);
  check "cost" (bits snap_cost) (bits sp.Milp.Sparse.cost);
  check "slack_lo" (bits snap_slo) (bits sp.Milp.Sparse.slack_lo);
  check "slack_hi" (bits snap_shi) (bits sp.Milp.Sparse.slack_hi)

let suite =
  [
    ( "monte carlo batch == sequential (total flow)",
      `Quick,
      test_mc_differential Te.Formulation.Total_flow );
    ( "monte carlo batch == sequential (max-min)",
      `Quick,
      test_mc_differential (Te.Formulation.Max_min { bins = 3; ratio = 1. }) );
    ( "monte carlo batch == sequential (mlu)",
      `Quick,
      test_mc_differential (Te.Formulation.Mlu { u_max = 10. }) );
    ("enumeration batch == sequential", `Quick, test_enum_differential);
    ( "engine agrees with Simulate.route (total flow)",
      `Quick,
      test_engine_vs_route Te.Formulation.Total_flow );
    ( "engine agrees with Simulate.route (mlu)",
      `Quick,
      test_engine_vs_route (Te.Formulation.Mlu { u_max = 10. }) );
    ("every overlay audited", `Quick, test_every_overlay_audited);
    ("sweep equals per-scenario degradations", `Quick, test_sweep_equals_map);
    ("sweep solves each distinct patch once", `Quick, test_sweep_solves_distinct_patches);
    ("delta patches equal full patches bit for bit", `Quick, test_delta_patch_exact);
    QCheck_alcotest.to_alcotest prop_warm_equals_cold;
    ( "shared CSC structure immutable under concurrent overlays",
      `Quick,
      test_shared_structure_immutable );
  ]
