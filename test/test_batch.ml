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

let prepared ~objective topo paths demand =
  match Te.Simulate.prepare ~objective topo paths demand with
  | Some e -> e
  | None -> Alcotest.fail "healthy network must route the demand"

(* The flow audit: routing [r] must fit the failed network as the test
   reads it from the topology, the scenario and the demand alone, not
   from the engine's LP:
   - each LAG's load is at most its live capacity; under MLU the
     capacity rows stay at full capacity scaled by the utilization U
     (Appendix A), so a LAG that is not fully down may carry U times
     its capacity, U being the answer's performance;
   - a path across a fully-down LAG carries nothing;
   - each pair carries at most its demand. *)
let check_flows ~objective ~what topo demand s (r : Te.Simulate.result) =
  let tol x = 1e-6 *. (1. +. x) in
  let show = Format.asprintf "%a" Failure.Scenario.pp s in
  let load = Array.make (Wan.Topology.num_lags topo) 0. in
  Array.iter
    (fun (pc : Te.Formulation.pair_cols) ->
      let vol = Traffic.Demand.volume demand ~src:pc.Te.Formulation.src ~dst:pc.dst in
      let carried = ref 0. in
      Array.iteri
        (fun j (path : Netpath.Path.t) ->
          let x = r.Te.Simulate.flows.(pc.Te.Formulation.path_cols.(j)) in
          let lags = Netpath.Path.lag_list path in
          if Failure.Scenario.path_down topo s lags && x > tol 0. then
            Alcotest.failf "%s, %s: pair %d-%d carries %.17g on path %d across a down LAG"
              what show pc.src pc.dst x j;
          carried := !carried +. x;
          List.iter (fun e -> load.(e) <- load.(e) +. x) lags)
        pc.Te.Formulation.paths;
      if !carried > vol +. tol vol then
        Alcotest.failf "%s, %s: pair %d-%d carries %.17g over its demand %g" what show pc.src
          pc.dst !carried vol)
    r.Te.Simulate.index.Te.Formulation.pair_arr;
  Array.iteri
    (fun e l ->
      let cap =
        match objective with
        | Te.Formulation.Mlu _ ->
          if Failure.Scenario.lag_down topo s e then 0.
          else r.Te.Simulate.performance *. Wan.Lag.capacity (Wan.Topology.lag topo e)
        | Te.Formulation.Total_flow | Te.Formulation.Max_min _ ->
          Failure.Scenario.lag_capacity topo s e
      in
      if l > cap +. tol cap then
        Alcotest.failf "%s, %s: LAG %d carries %.17g over its capacity %g" what show e l cap)
    load

(* [Simulate.degradation_prepared eng s], bit for bit, with the routing
   behind it through the flow audit *)
let degradation_checked ~objective ~what topo demand eng s =
  Option.map
    (fun (r : Te.Simulate.result) ->
      check_flows ~objective ~what topo demand s r;
      Te.Formulation.degradation objective
        ~healthy:(Te.Simulate.engine_healthy eng).Te.Simulate.performance
        ~failed:r.Te.Simulate.performance)
    (Te.Simulate.route_prepared eng s)

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
  let read c = Milp.Lp_stats.read c () in
  let wh0 = read Milp.Lp_stats.batch_warm_hits
  and o0 = read Milp.Lp_stats.batch_overlays
  and f0 = read Milp.Lp_stats.certify_failures in
  let ref_degs, ref_scens =
    Te.Monte_carlo.sample_degradations ~objective ~seed:7 ~samples topo paths demand
  in
  (* the warm path must actually have been taken, not cold-fallen-back:
     only the healthy overlay of the prepare solves cold *)
  Alcotest.(check int)
    "every overlay but the healthy one warm-hits"
    (read Milp.Lp_stats.batch_overlays - o0 - 1)
    (read Milp.Lp_stats.batch_warm_hits - wh0);
  (* every overlay passed its audit against the patched rhs and upper
     bounds: under MLU a path across a down LAG is closed by its bound
     alone, and the audit sees flow on it *)
  Alcotest.(check int) "no overlay audit failed" 0 (read Milp.Lp_stats.certify_failures - f0);
  let eng = prepared ~objective topo paths demand in
  let healthy = (Te.Simulate.engine_healthy eng).Te.Simulate.performance in
  Array.iteri
    (fun i s ->
      check_oracle ~objective ~what:(Printf.sprintf "sample %d" i) ~infeasible:healthy net
        s ref_degs.(i))
    ref_scens;
  (* the engine's routing of every sample passes the flow audit *)
  Array.iteri
    (fun i s ->
      Option.iter
        (check_flows ~objective ~what:(Printf.sprintf "sample %d" i) topo demand s)
        (Te.Simulate.route_prepared eng s))
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

(* The per-scenario path builds a structurally different LP (extension
   rows for blocked paths, where the engine bounds columns), so
   vertices — hence flows — may differ; the optimal objective value must
   agree to solver tolerance, here over the empty scenario and every
   whole-LAG failure, and the engine's flows must pass the flow audit. *)
let test_engine_vs_route objective () =
  let topo, paths, demand = wan () in
  let eng = prepared ~objective topo paths demand in
  List.iteri
    (fun i s ->
      let legacy = Te.Simulate.degradation ~objective topo paths demand s in
      let engine = degradation_checked ~objective ~what:"wan" topo demand eng s in
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

(* An engine built from public calls with the full-patch layout: the
   engine's bounded base (no extension rows, each path's cap an upper
   bound on its column) but with every path open at d_max, and every
   overlay rewriting every capacity row (live capacities) and every path
   column's upper bound (0 when blocked, d_max when open). The engine's
   delta patches on the healthy base must give the same right-hand sides
   and bounds, hence the same flows, bit for bit. *)
let full_patch_flows ~objective topo paths demand =
  let d_max =
    List.fold_left (fun acc (_, v) -> Float.max acc v) 1. (Traffic.Demand.entries demand)
  in
  let spec, index =
    Te.Formulation.build ~objective ~topo ~paths
      ~lag_cap:(fun e -> Te.Formulation.C (Wan.Lag.capacity (Wan.Topology.lag topo e)))
      ~demand:(fun ~src ~dst -> Te.Formulation.C (Traffic.Demand.volume demand ~src ~dst))
      ~d_max ()
  in
  let path_cols =
    List.concat
      (List.mapi
         (fun k p ->
           List.mapi
             (fun j path ->
               (index.Te.Formulation.pair_arr.(k).Te.Formulation.path_cols.(j), p, j, path))
             (Netpath.Path_set.all_paths p))
         paths)
  in
  let ub = Array.make (Array.length spec.Te.Lp_spec.cols) infinity in
  List.iter (fun (col, _, _, _) -> ub.(col) <- d_max) path_cols;
  let model, _ = Te.Lp_spec.to_model ~ub spec in
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
    let ubs =
      List.map
        (fun (col, p, j, path) ->
          let blocked =
            (not (Te.Simulate.availability topo p s).(j))
            || mlu && Failure.Scenario.path_down topo s (Netpath.Path.lag_list path)
          in
          (col, if blocked then 0. else d_max))
        path_cols
    in
    (caps, ubs)
  in
  let solve ?warm s =
    let patch, ub = full_patch s in
    Milp.Batch.solve ?warm ~patch ~ub batch
  in
  let warm =
    match solve Failure.Scenario.empty with
    | { Milp.Batch.basis = Some b; _ } -> b
    | _ -> Alcotest.fail "full-patch engine: healthy solve has no basis"
  in
  fun s ->
    match (solve ~warm s).Milp.Batch.result with
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

(* --- bound overlays: an unfixed column warm-hits ------------------------ *)

(* max 3x + 2y s.t. x + y <= 4, x <= 3, x and y in [0, 10], with x fixed
   at 0 in the base (upper bound 0): the base optimum routes y = 4 and
   leaves x nonbasic at 0 with an attractive reduced cost. Unfixing x
   leaves the base's optimal basis dual infeasible only on x, a boxed
   column, so the warm start flips it to 10 and the dual simplex reaches
   x = 3, y = 1 (objective 11) without a cold restart. *)
let test_unfixed_column_warm_hits () =
  let m = Milp.Model.create () in
  let x = Milp.Model.continuous ~ub:10. m "x" and y = Milp.Model.continuous ~ub:10. m "y" in
  let e l =
    Milp.Linexpr.of_terms (List.map (fun (k, (v : Milp.Model.var)) -> (k, v.Milp.Model.vid)) l)
  in
  Milp.Model.add_cons m (e [ (1., x); (1., y) ]) Milp.Model.Le 4.;
  Milp.Model.add_cons m (e [ (1., x) ]) Milp.Model.Le 3.;
  Milp.Model.set_objective m Milp.Model.Maximize (e [ (3., x); (2., y) ]);
  let batch = Milp.Batch.prepare m in
  let fixed = [ (x.Milp.Model.vid, 0.) ] in
  let warm =
    match Milp.Batch.solve ~ub:fixed batch with
    | { Milp.Batch.result = Milp.Simplex.Optimal { obj; _ }; basis = Some b; _ } ->
      Alcotest.(check (float 1e-12)) "base objective" 8. obj;
      b
    | _ -> Alcotest.fail "base solve not optimal"
  in
  let unfix = [ (x.Milp.Model.vid, 10.) ] in
  let w = Milp.Batch.solve ~warm ~ub:unfix batch and c = Milp.Batch.solve ~ub:unfix batch in
  Alcotest.(check bool) "warm hit" true w.Milp.Batch.warm_hit;
  match (w.Milp.Batch.result, c.Milp.Batch.result) with
  | ( Milp.Simplex.Optimal { obj = ow; values = vw },
      Milp.Simplex.Optimal { obj = oc; values = vc } ) ->
    Alcotest.(check (float 1e-12)) "warm objective" 11. ow;
    Alcotest.(check (float 1e-12)) "cold objective" oc ow;
    Alcotest.(check (array (float 1e-12))) "warm point = cold point" vc vw;
    Alcotest.(check bool) "audit passes" true
      (Milp.Batch.check ~ub:unfix ~obj:ow ~values:vw batch = Ok ());
    (* the base bound still closes x: the same point fails that audit *)
    Alcotest.(check bool) "audit against the base bound fails" true
      (Milp.Batch.check ~ub:fixed ~obj:ow ~values:vw batch <> Ok ())
  | _ -> Alcotest.fail "overlay not optimal"

(* Over the random-LP corpus (finite bounds, [Le] rows with nonnegative
   rhs, so x = 0 is feasible and every overlay is bounded): fix random
   columns at 0 in the base, then solve the overlay that unfixes them
   warm from the fixed base's optimal basis. Every violation of dual
   feasibility sits on a boxed column, so the warm start must flip and
   hit, and agree with a cold solve of the same overlay. *)
let prop_unfix_warm_hits =
  QCheck2.Test.make ~name:"unfixing columns warm-hits and equals cold" ~count:64
    QCheck2.Gen.(pair (int_range 0 63) int)
    (fun (case, pseed) ->
      let mdl = Test_revised.random_milp case in
      let batch = Milp.Batch.prepare mdl in
      let rng = Random.State.make [| 0xf11b; case; pseed |] in
      let fixed =
        List.filter_map
          (fun j -> if Random.State.bool rng then Some (j, 0.) else None)
          (List.init (Milp.Model.num_vars mdl) Fun.id)
      in
      let warm =
        match Milp.Batch.solve ~ub:fixed batch with
        | { Milp.Batch.result = Milp.Simplex.Optimal _; basis = Some b; _ } -> b
        | _ -> QCheck2.Test.fail_reportf "case %d: fixed base not optimal" case
      in
      let w = Milp.Batch.solve ~warm batch and c = Milp.Batch.solve batch in
      if not w.Milp.Batch.warm_hit then
        QCheck2.Test.fail_reportf "case %d: unfixing %d columns fell back cold" case
          (List.length fixed);
      (match (w.Milp.Batch.result, c.Milp.Batch.result) with
      | Milp.Simplex.Optimal { obj = ow; values }, Milp.Simplex.Optimal { obj = oc; _ } ->
        if Float.abs (ow -. oc) > 1e-9 *. (1. +. Float.abs oc) then
          QCheck2.Test.fail_reportf "case %d: warm obj %.17g vs cold %.17g" case ow oc;
        (match Milp.Batch.check ~obj:ow ~values batch with
        | Ok () -> ()
        | Error msg -> QCheck2.Test.fail_reportf "case %d: warm audit failed: %s" case msg)
      | _ -> QCheck2.Test.fail_reportf "case %d: unfixed overlay not optimal" case);
      true)

(* --- the engine == the row-form oracle on the Zoo topologies ----------- *)

(* Cogentco and Uninett2010 with 8 fixed pairs each, each pair
   demanding 1.2 average LAG capacities so that most failures degrade,
   for every objective: the engine (path caps as column bounds, warm
   overlays) against Te.Simulate.degradation (extension rows, cold
   solves), on every whole-LAG failure of a LAG some path crosses and
   every pair of consecutive such failures, within 1e-9 relative to the
   healthy performance, and every engine routing passes the flow
   audit. *)
let zoo_net ?(n = 8) ?(share = 1.2) topo =
  let rng = Random.State.make [| 0x200; Wan.Topology.num_nodes topo |] in
  let nn = Wan.Topology.num_nodes topo in
  let rec draw acc =
    if List.length acc = n then List.rev acc
    else
      let a = Random.State.int rng nn and b = Random.State.int rng nn in
      if a = b || List.mem (a, b) acc || List.mem (b, a) acc then draw acc else draw ((a, b) :: acc)
  in
  let pairs = draw [] in
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 topo pairs in
  let vol = Wan.Topology.avg_lag_capacity topo *. share in
  (topo, paths, Traffic.Demand.of_list (List.map (fun p -> (p, vol)) pairs))

let test_zoo_differential () =
  List.iter
    (fun (net, topo) ->
      let topo, paths, demand = zoo_net topo in
      let on_path, _ = lags_by_use topo paths in
      let singles = List.map (whole_lag topo) on_path in
      let rec doubles = function
        | a :: (b :: _ as rest) ->
          Failure.Scenario.of_links topo (Failure.Scenario.links a @ Failure.Scenario.links b)
          :: doubles rest
        | _ -> []
      in
      let doubles = doubles singles in
      let scenarios = (Failure.Scenario.empty :: singles) @ doubles in
      List.iter
        (fun (name, objective) ->
          let read c = Milp.Lp_stats.read c () in
          let o0 = read Milp.Lp_stats.batch_overlays
          and wh0 = read Milp.Lp_stats.batch_warm_hits in
          let eng = prepared ~objective topo paths demand in
          let scale = 1. +. Float.abs (Te.Simulate.engine_healthy eng).Te.Simulate.performance in
          List.iteri
            (fun i s ->
              let what = Printf.sprintf "%s, %s, scenario %d" net name i in
              match
                (Te.Simulate.degradation ~objective topo paths demand s,
                 degradation_checked ~objective ~what topo demand eng s)
              with
              | Some d, Some e ->
                if Float.abs (d -. e) > 1e-9 *. scale then
                  Alcotest.failf "%s: oracle %.17g vs engine %.17g" what d e
              | None, None -> ()
              | _ -> Alcotest.failf "%s: feasibility verdicts disagree" what)
            scenarios;
          (* the oracle solves outside Milp.Batch, so these count the
             engine's overlays alone: only the healthy one solves cold *)
          Alcotest.(check int)
            (Printf.sprintf "%s, %s: every overlay but the healthy one warm-hits" net name)
            (read Milp.Lp_stats.batch_overlays - o0 - 1)
            (read Milp.Lp_stats.batch_warm_hits - wh0))
        objectives)
    [ ("cogentco", Wan.Zoo.cogentco ()); ("uninett2010", Wan.Zoo.uninett2010 ()) ]

(* --- capacity rows no failure can bind are left out of the solve ------- *)

(* The rule, restated from DESIGN.md §12: LAG e's capacity row is left
   out when the summed demand of the pairs with a path across e is at
   most [floor e]; the engine's floor is e's smallest link. *)
let smallest_link (lag : Wan.Lag.t) =
  Array.fold_left (fun a (l : Wan.Lag.link) -> Float.min a l.Wan.Lag.link_capacity) infinity
    lag.Wan.Lag.links

let droppable ?(floor = smallest_link) topo paths demand =
  List.filter
    (fun e ->
      let crossing =
        List.filter
          (fun p ->
            List.exists (fun path -> Netpath.Path.mem_lag path e) (Netpath.Path_set.all_paths p))
          paths
      in
      crossing <> []
      && List.fold_left
           (fun acc (p : Netpath.Path_set.pair) ->
             acc +. Traffic.Demand.volume demand ~src:p.Netpath.Path_set.src ~dst:p.Netpath.Path_set.dst)
           0. crossing
         <= floor (Wan.Topology.lag topo e))
    (List.init (Wan.Topology.num_lags topo) Fun.id)

(* [eng] against the row-form oracle (Simulate.route, healthy routed
   once) on [scenarios], within 1e-9 relative to the healthy
   performance. The engine's routing must also pass the flow audit
   ([check_flows]). No overlay audit may fail. *)
let agree_with_oracle ~objective ~what (topo, paths, demand) eng scenarios =
  let healthy =
    match Te.Simulate.healthy ~objective topo paths demand with
    | Some h -> h.Te.Simulate.performance
    | None -> Alcotest.failf "%s: the oracle cannot route the healthy network" what
  in
  let scale = 1. +. Float.abs healthy in
  let f0 = Milp.Lp_stats.read Milp.Lp_stats.certify_failures () in
  List.iteri
    (fun i s ->
      let oracle =
        Option.map
          (fun r -> Te.Formulation.degradation objective ~healthy ~failed:r.Te.Simulate.performance)
          (Te.Simulate.route ~objective topo paths demand s)
      in
      let at = Printf.sprintf "%s, scenario %d" what i in
      let engine = degradation_checked ~objective ~what:at topo demand eng s in
      match (oracle, engine) with
      | Some d, Some e ->
        if Float.abs (d -. e) > 1e-9 *. scale then
          Alcotest.failf "%s %a: oracle %.17g vs engine %.17g" at Failure.Scenario.pp s d e
      | None, None -> ()
      | _ -> Alcotest.failf "%s: feasibility verdicts disagree" at)
    scenarios;
  Alcotest.(check int) (what ^ ": no overlay audit failed") 0
    (Milp.Lp_stats.read Milp.Lp_stats.certify_failures () - f0)

(* Cogentco and Uninett2010 at the sweep workload's shape (24 and 16
   pairs, half an average LAG each): about half the capacity rows are
   left out, and the engine still equals the oracle on every whole-LAG
   failure of a dropped LAG, on consecutive pairs of them and on the
   first link of each, under Total_flow and Max_min. Some dropped LAG
   carries healthy flow, so a failure of it moves flow that only the
   column bounds stop. *)
let test_dropped_rows_oracle () =
  List.iter
    (fun (net, topo, n) ->
      let ((topo, paths, demand) as nd) = zoo_net ~n ~share:0.5 topo in
      let dropped = droppable topo paths demand in
      let singles = List.map (whole_lag topo) dropped in
      let rec doubles = function
        | a :: (b :: _ as rest) ->
          Failure.Scenario.of_links topo (Failure.Scenario.links a @ Failure.Scenario.links b)
          :: doubles rest
        | _ -> []
      in
      let firsts = List.map (fun e -> Failure.Scenario.of_links topo [ (e, 0) ]) dropped in
      let scenarios = (Failure.Scenario.empty :: singles) @ doubles singles @ firsts in
      List.iter
        (fun (name, objective) ->
          let what = Printf.sprintf "%s, %s" net name in
          let eng = prepared ~objective topo paths demand in
          let solved, full = Te.Simulate.engine_rows eng in
          Alcotest.(check int) (what ^ ": rows left out") (List.length dropped) (full - solved);
          Alcotest.(check bool) (what ^ ": a third of the rows or more left out") true
            (3 * List.length dropped >= full);
          let flows = (Te.Simulate.engine_healthy eng).Te.Simulate.flows in
          let index = (Te.Simulate.engine_healthy eng).Te.Simulate.index in
          Alcotest.(check bool) (what ^ ": a dropped LAG carries healthy flow") true
            (Array.exists
               (fun (pc : Te.Formulation.pair_cols) ->
                 Array.exists Fun.id
                   (Array.mapi
                      (fun j path ->
                        flows.(pc.Te.Formulation.path_cols.(j)) > 0.
                        && List.exists (Netpath.Path.mem_lag path) dropped)
                      pc.Te.Formulation.paths))
               index.Te.Formulation.pair_arr);
          agree_with_oracle ~objective ~what nd eng scenarios)
        [ List.nth objectives 0; List.nth objectives 1 ];
      (* MLU's utilization rows bind through U: none is left out *)
      let eng = prepared ~objective:(Te.Formulation.Mlu { u_max = 10. }) topo paths demand in
      let solved, full = Te.Simulate.engine_rows eng in
      Alcotest.(check int) (net ^ ", mlu: every row solved") full solved)
    [ ("cogentco", Wan.Zoo.cogentco (), 24); ("uninett2010", Wan.Zoo.uninett2010 (), 16) ]

(* The bench's africa-like WAN has multi-link LAGs: the floor (smallest
   link) leaves one of its capacity rows out, where the LAG's capacity
   would leave out ten, and a partial failure would then make a row
   bind that the solve no longer sees. Every single-link and whole-LAG
   failure must agree with the oracle and pass the audit. *)
let test_dropped_rows_multi_link () =
  let topo = Wan.Generators.africa_like ~seed:5 ~n:8 () in
  let pairs = [ (0, 5); (1, 6); (2, 7) ] in
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 topo pairs in
  let demand = Traffic.Demand.of_list (List.map (fun p -> (p, 78.)) pairs) in
  let on_path, _ = lags_by_use topo paths in
  Alcotest.(check int) "rows the floor leaves out" 1 (List.length (droppable topo paths demand));
  Alcotest.(check int) "rows the LAG's capacity would leave out" 10
    (List.length (droppable ~floor:Wan.Lag.capacity topo paths demand));
  Alcotest.(check bool) "multi-link LAGs on the paths" true
    (List.exists (fun e -> Wan.Lag.num_links (Wan.Topology.lag topo e) > 1) on_path);
  let links =
    List.concat_map
      (fun e ->
        List.init (Wan.Lag.num_links (Wan.Topology.lag topo e)) (fun i ->
            Failure.Scenario.of_links topo [ (e, i) ]))
      on_path
  in
  let scenarios = (Failure.Scenario.empty :: links) @ List.map (whole_lag topo) on_path in
  List.iter
    (fun (name, objective) ->
      let eng = prepared ~objective topo paths demand in
      agree_with_oracle ~objective ~what:name (topo, paths, demand) eng scenarios;
      let solved, full = Te.Simulate.engine_rows eng in
      Alcotest.(check int) (name ^ ": one row left out") 1 (full - solved))
    [ List.nth objectives 0; List.nth objectives 1 ]

(* max x + y s.t. x + y <= 10 (left out of the solve), x <= 3, y <= 4:
   the solve sees only the last two rows. A patch of the dropped row
   reaches only the audit, which checks every row: at rhs 5 the
   answer (3, 4) violates the dropped row alone and fails. *)
let test_dropped_row_audited () =
  let m = Milp.Model.create () in
  let x = Milp.Model.continuous m "x" and y = Milp.Model.continuous m "y" in
  let e l =
    Milp.Linexpr.of_terms (List.map (fun (k, (v : Milp.Model.var)) -> (k, v.Milp.Model.vid)) l)
  in
  Milp.Model.add_cons m ~name:"sum" (e [ (1., x); (1., y) ]) Milp.Model.Le 10.;
  Milp.Model.add_cons m (e [ (1., x) ]) Milp.Model.Le 3.;
  Milp.Model.add_cons m (e [ (1., y) ]) Milp.Model.Le 4.;
  Milp.Model.set_objective m Milp.Model.Maximize (e [ (1., x); (1., y) ]);
  let batch = Milp.Batch.prepare ~keep:(fun i -> i <> 0) m in
  Alcotest.(check (pair int int)) "solved/full rows" (2, 3) (Milp.Batch.rows batch);
  Alcotest.(check (array (float 0.))) "base rhs of every row" [| 10.; 3.; 4. |]
    (Milp.Batch.base_rhs batch);
  let patch = [ (0, 5.) ] in
  match ((Milp.Batch.solve batch).Milp.Batch.result, (Milp.Batch.solve ~patch batch).Milp.Batch.result) with
  | Milp.Simplex.Optimal { obj; values }, Milp.Simplex.Optimal { obj = obj'; values = values' } ->
    Alcotest.(check (float 1e-12)) "objective" 7. obj;
    Alcotest.(check (array int64)) "the dropped row's patch leaves the solve as it was"
      (bits values) (bits values');
    Alcotest.(check (float 0.)) "same objective" obj obj';
    Alcotest.(check bool) "audit passes at the base rhs" true
      (Milp.Batch.check ~obj ~values batch = Ok ());
    (match Milp.Batch.check ~patch ~obj ~values batch with
    | Ok () -> Alcotest.fail "a point violating the dropped row passed the audit"
    | Error reason ->
      Alcotest.(check bool) ("the dropped row is named: " ^ reason) true
        (String.length reason >= 9 && String.sub reason 0 9 = "row 0 (su"))
  | _ -> Alcotest.fail "overlay not optimal"

(* --- the compiled audit equals the Linexpr-walking check, bit for bit -- *)

(* The point check as it was written over the model's Linexpr rows:
   Kahan sums in Linexpr.iter order, row residuals normalized by
   1 + |rhs| + max |term|, bound residuals by 1 + |bound|, the first
   failure's message. Certify.check_point must give the same bits. *)
let reference_check ?rhs ?ub ?obj ~(tols : Milp.Certify.tolerances) model values =
  let kahan e =
    let sum = ref 0. and comp = ref 0. and scale = ref 0. in
    Milp.Linexpr.iter
      (fun id k ->
        let term = k *. values.(id) in
        let a = Float.abs term in
        if a > !scale then scale := a;
        let y = term -. !comp in
        let t = !sum +. y in
        comp := (t -. !sum) -. y;
        sum := t)
      e;
    (!sum +. (Milp.Linexpr.constant e -. !comp), !scale)
  in
  let failure = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !failure = None then failure := Some s) fmt in
  let conss = Milp.Model.conss model in
  let acts = Array.make (Array.length conss) 0. in
  let row_res = ref 0. in
  Array.iteri
    (fun i (c : Milp.Model.cons) ->
      let lhs, scale = kahan c.Milp.Model.lhs in
      acts.(i) <- lhs;
      let b = match rhs with Some b -> b.(i) | None -> c.Milp.Model.rhs in
      let viol =
        match c.Milp.Model.rel with
        | Milp.Model.Le -> lhs -. b
        | Milp.Model.Ge -> b -. lhs
        | Milp.Model.Eq -> Float.abs (lhs -. b)
      in
      let res = Float.max 0. viol /. (1. +. Float.abs b +. scale) in
      if res > !row_res then row_res := res;
      if res > tols.Milp.Certify.feas_tol then
        fail "row %d (%s): residual %.3e" i c.Milp.Model.cname res)
    conss;
  let bound_res = ref 0. and int_res = ref 0. in
  Array.iter
    (fun (v : Milp.Model.var) ->
      let j = v.Milp.Model.vid in
      let x = values.(j) and lb = v.Milp.Model.lb in
      let vub = match ub with Some u -> u.(j) | None -> v.Milp.Model.ub in
      let res =
        if Float.is_nan x then infinity
        else
          Float.max
            (if Float.is_finite lb then (lb -. x) /. (1. +. Float.abs lb) else 0.)
            (if Float.is_finite vub then (x -. vub) /. (1. +. Float.abs vub) else 0.)
      in
      if res > !bound_res then bound_res := res;
      if res > tols.Milp.Certify.feas_tol then
        fail "%s = %g outside [%g, %g]: residual %.3e" v.Milp.Model.vname x lb vub res;
      if v.Milp.Model.kind <> Milp.Model.Continuous then begin
        let frac = Float.abs (x -. Float.round x) in
        if frac > !int_res then int_res := frac;
        if frac > tols.Milp.Certify.int_tol then
          fail "%s = %g not integral: frac %.3e" v.Milp.Model.vname x frac
      end)
    (Milp.Model.vars model);
  let obj_error =
    match obj with
    | None -> 0.
    | Some obj ->
      let recomputed, _ = kahan (snd (Milp.Model.objective model)) in
      let err = Float.abs (recomputed -. obj) /. (1. +. Float.abs obj) in
      if not (err <= tols.Milp.Certify.obj_tol) then
        fail "objective mismatch: reported %.9g, recomputed %.9g" obj recomputed;
      err
  in
  (!row_res, !bound_res, !int_res, obj_error, !failure, acts)

(* a random model with every row sense, integer and binary columns,
   infinite bounds and an objective constant, and a point near its
   box: about one coordinate in thirty is NaN *)
let random_check_case seed =
  let rng = Random.State.make [| 0xc0b1; seed |] in
  let f a b = a +. Random.State.float rng (b -. a) in
  let m = Milp.Model.create () in
  let n = 1 + Random.State.int rng 12 in
  let vars =
    Array.init n (fun i ->
        let name = Printf.sprintf "v%d" i in
        match Random.State.int rng 4 with
        | 0 -> Milp.Model.binary m name
        | 1 -> Milp.Model.integer ~lb:(Float.round (f (-5.) 0.)) ~ub:(Float.round (f 0. 5.)) m name
        | 2 -> Milp.Model.continuous ~lb:Float.neg_infinity m name
        | _ -> Milp.Model.continuous ~lb:(f (-3.) 0.) ~ub:(f 0. 1e4) m name)
  in
  let expr () =
    Milp.Linexpr.of_terms
      (List.filter_map
         (fun (v : Milp.Model.var) ->
           if Random.State.int rng 3 = 0 then None
           else Some (f (-1e3) 1e3 *. Float.pow 10. (f (-6.) 0.), v.Milp.Model.vid))
         (Array.to_list vars))
  in
  let rows = Random.State.int rng 10 in
  for _ = 1 to rows do
    let rel = [| Milp.Model.Le; Milp.Model.Ge; Milp.Model.Eq |].(Random.State.int rng 3) in
    Milp.Model.add_cons m (expr ()) rel (f (-50.) 50.)
  done;
  Milp.Model.set_objective m
    (if Random.State.bool rng then Milp.Model.Maximize else Milp.Model.Minimize)
    (Milp.Linexpr.add (expr ()) (Milp.Linexpr.const (f (-10.) 10.)));
  let values =
    Array.map
      (fun (v : Milp.Model.var) ->
        if Random.State.int rng 30 = 0 then nan
        else
          let lo = if Float.is_finite v.Milp.Model.lb then v.Milp.Model.lb else -10.
          and hi = if Float.is_finite v.Milp.Model.ub then v.Milp.Model.ub else 10. in
          f (lo -. 0.01) (hi +. 0.01))
      vars
  in
  let len = if Random.State.int rng 20 = 0 then n + 1 else n in
  let values = Array.init len (fun i -> if i < n then values.(i) else 0.) in
  let rhs =
    if Random.State.bool rng then
      Some (Array.map (fun (c : Milp.Model.cons) -> c.Milp.Model.rhs +. f (-1.) 1.) (Milp.Model.conss m))
    else None
  in
  let ub =
    if Random.State.bool rng then
      Some (Array.map (fun (v : Milp.Model.var) -> Float.max v.Milp.Model.lb (f 0. 20.)) vars)
    else None
  in
  let obj = if Random.State.bool rng then Some (f (-1e4) 1e4) else None in
  let tols =
    if Random.State.bool rng then Milp.Certify.default_tolerances
    else { Milp.Certify.default_tolerances with Milp.Certify.feas_tol = 1e-2; int_tol = 1e-1 }
  in
  (m, values, rhs, ub, obj, tols)

let prop_compiled_check_bits =
  QCheck2.Test.make ~name:"compiled point check equals the Linexpr walk bit for bit" ~count:500
    QCheck2.Gen.int
    (fun seed ->
      let m, values, rhs, ub, obj, tols = random_check_case seed in
      let p = Milp.Certify.check_point ?rhs ?ub ?obj ~tols m values in
      let b = Int64.bits_of_float in
      if Array.length values <> Milp.Model.num_vars m then
        p.Milp.Certify.failure = Some "claimed point has the wrong length"
        && p.Milp.Certify.row_residual = infinity
      else begin
        let rr, br, ir, oe, failure, acts = reference_check ?rhs ?ub ?obj ~tols m values in
        if
          not
            (b rr = b p.Milp.Certify.row_residual
            && b br = b p.Milp.Certify.bound_residual
            && b ir = b p.Milp.Certify.int_residual
            && b oe = b p.Milp.Certify.obj_error
            && failure = p.Milp.Certify.failure
            && bits acts = bits p.Milp.Certify.acts)
        then
          QCheck2.Test.fail_reportf "seed %d: residuals or verdict differ (%s vs %s)" seed
            (Option.value failure ~default:"ok")
            (Option.value p.Milp.Certify.failure ~default:"ok");
        true
      end)

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
  let outcomes =
    Parallel.Pool.map ~domains:4
      (fun patch ->
        match Milp.Batch.solve ~warm:warm_basis ~patch batch with
        | { Milp.Batch.result = Milp.Simplex.Optimal _; _ } -> true
        | _ -> false)
      patches
  in
  Alcotest.(check bool) "every overlay solved" true (Array.for_all Fun.id outcomes);
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
    ("an unfixed attractive column warm-hits", `Quick, test_unfixed_column_warm_hits);
    QCheck_alcotest.to_alcotest prop_unfix_warm_hits;
    ("engine agrees with the row-form oracle on Cogentco and Uninett2010", `Quick,
      test_zoo_differential);
    ("engine leaves out rows no failure binds, equals the oracle", `Quick,
      test_dropped_rows_oracle);
    ("the floor keeps multi-link LAG rows a partial failure binds", `Quick,
      test_dropped_rows_multi_link);
    ("a point violating only a dropped row fails the audit", `Quick, test_dropped_row_audited);
    QCheck_alcotest.to_alcotest prop_compiled_check_bits;
    ( "shared CSC structure immutable under concurrent overlays",
      `Quick,
      test_shared_structure_immutable );
  ]
