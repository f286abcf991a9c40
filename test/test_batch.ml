(* Differential tests for the batched scenario engine (DESIGN.md §12).

   The engine's contract is bit-identity: the overlay path (one
   prepare, rhs patches, warm dual solves from the healthy basis) and
   the per-scenario-prepare path hand the simplex bit-identical inputs,
   so Monte Carlo and enumeration sweeps must return the very same
   float bits for every batch size, domain count, and batch on/off —
   that is what makes batch off a pure performance ablation. The
   warm=cold property is weaker by design (alternate optima can differ
   at the last bit between warm dual and cold primal runs) and is
   checked at objective/status level over the random-LP corpus. *)

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

(* --- Monte Carlo: batch == sequential, for every chunking ------------- *)

let test_mc_differential objective () =
  let topo, paths, demand = wan () in
  let samples = 96 in
  (* reference arm: per-scenario prepares, sequential *)
  let ref_degs, ref_scens =
    Te.Monte_carlo.sample_degradations ~objective ~batch:false ~domains:1 ~seed:7
      ~samples topo paths demand
  in
  let wh0 = Milp.Batch.cumulative_warm_hits () in
  List.iter
    (fun (batch_size, domains) ->
      let degs, scens =
        Te.Monte_carlo.sample_degradations ~objective ~batch:true ~batch_size
          ~domains ~seed:7 ~samples topo paths demand
      in
      let what = Printf.sprintf "batch_size=%d domains=%d" batch_size domains in
      Alcotest.(check bool)
        (what ^ ": scenarios identical")
        true
        (Array.for_all2 scenario_eq scens ref_scens);
      Alcotest.(check (array int64))
        (what ^ ": degradations bit-identical")
        (bits ref_degs) (bits degs))
    [ (1, 1); (7, 1); (64, 1); (1, 4); (7, 4); (64, 4) ];
  (* the batched arms must actually have warm-hit, not cold-fallen-back
     (counter is domain-local, so only the domains=1 runs count here) *)
  Alcotest.(check bool)
    "nonzero batched warm hits" true
    (Milp.Batch.cumulative_warm_hits () > wh0)

(* --- enumeration: worst case identical across arms -------------------- *)

let test_enum_differential () =
  let topo, paths, demand = wan () in
  List.iter
    (fun k ->
      let r0 =
        Raha.Baselines.enumerate_failures ~batch:false ~domains:1 ~k topo paths
          demand
      in
      List.iter
        (fun (batch, domains) ->
          let r =
            Raha.Baselines.enumerate_failures ~batch ~domains ~k topo paths
              demand
          in
          let what = Printf.sprintf "k=%d batch=%b domains=%d" k batch domains in
          Alcotest.(check int)
            (what ^ ": scenario count")
            r0.Raha.Baselines.scenarios_evaluated
            r.Raha.Baselines.scenarios_evaluated;
          Alcotest.(check int64)
            (what ^ ": worst degradation bit-identical")
            (Int64.bits_of_float r0.Raha.Baselines.worst)
            (Int64.bits_of_float r.Raha.Baselines.worst);
          Alcotest.(check bool)
            (what ^ ": worst scenario identical")
            true
            (scenario_eq r0.Raha.Baselines.worst_scenario
               r.Raha.Baselines.worst_scenario))
        [ (true, 1); (true, 4); (false, 4) ])
    [ 1; 2 ]

(* --- engine vs the independent Simulate.route path -------------------- *)

(* The legacy per-scenario path builds a structurally different LP (no
   extension rows for open paths), so vertices — hence flows — may
   differ; the optimal objective value must agree to solver tolerance.
   This is the check that is independent of the engine's own
   rebuild-arm code. *)
let test_engine_vs_route objective () =
  let topo, paths, demand = wan () in
  let eng =
    match Te.Simulate.prepare ~objective topo paths demand with
    | Some e -> e
    | None -> Alcotest.fail "healthy network must route the demand"
  in
  let whole_lag e =
    let lag = Wan.Topology.lag topo e in
    Failure.Scenario.of_links topo
      (List.init (Wan.Lag.num_links lag) (fun i -> (e, i)))
  in
  let scenarios =
    Failure.Scenario.empty
    :: List.init (Wan.Topology.num_lags topo) whole_lag
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
    scenarios

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
    QCheck_alcotest.to_alcotest prop_warm_equals_cold;
    ( "shared CSC structure immutable under concurrent overlays",
      `Quick,
      test_shared_structure_immutable );
  ]
