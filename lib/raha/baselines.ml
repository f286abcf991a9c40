type enumeration = {
  worst : float;
  worst_scenario : Failure.Scenario.t;
  scenarios_evaluated : int;
  elapsed : float;
}

let enumerate_failures ?(objective = Te.Formulation.Total_flow) ?pool ~k topo paths
    demand =
  let t0 = Unix.gettimeofday () in
  let scenarios = Array.of_list (Failure.Enumerate.up_to_k topo ~k) in
  (* One engine for the whole sweep: the formulation, CSC structure,
     symbolic factorization and healthy LP are built and solved once. *)
  let eng = Te.Simulate.prepare ~objective topo paths demand in
  let eval s =
    match eng with
    | None -> neg_infinity (* healthy network cannot route the demand *)
    | Some eng -> (
      match Te.Simulate.degradation_prepared eng s with
      | Some d -> d
      | None -> neg_infinity (* infeasible routing (disconnected MLU pair) *))
  in
  let degs =
    match pool with
    | Some pool -> Parallel.Pool.map_array pool eval scenarios
    | None -> Array.map eval scenarios
  in
  (* deterministic arg-max: first index attaining the maximum *)
  let worst_i = ref 0 in
  Array.iteri (fun i d -> if d > degs.(!worst_i) then worst_i := i) degs;
  {
    worst = degs.(!worst_i);
    worst_scenario = scenarios.(!worst_i);
    scenarios_evaluated = Array.length scenarios;
    elapsed = Unix.gettimeofday () -. t0;
  }

let k_failures ?(options = Analysis.default_options) ~k topo paths envelope =
  let spec =
    { options.Analysis.spec with Bilevel.max_failures = Some k; threshold = None }
  in
  Analysis.analyze ~options:{ options with Analysis.spec } topo paths envelope

let worst_failures_at_demand ?(options = Analysis.default_options) topo paths demand =
  let spec =
    { options.Analysis.spec with Bilevel.goal = Bilevel.Min_failed_performance }
  in
  let r =
    Analysis.analyze
      ~options:{ options with Analysis.spec }
      topo paths (Traffic.Envelope.fixed demand)
  in
  (* implied degradation relative to the design point at the same demand *)
  match Te.Simulate.healthy ~objective:spec.Bilevel.objective topo paths demand with
  | None -> r
  | Some h ->
    let healthy = h.Te.Simulate.performance in
    let degradation =
      Te.Formulation.degradation spec.Bilevel.objective ~healthy
        ~failed:r.Analysis.failed_performance
    in
    let avg_cap = Float.max 1e-9 (Wan.Topology.avg_lag_capacity topo) in
    {
      r with
      Analysis.degradation;
      normalized = degradation /. avg_cap;
      healthy_performance = healthy;
    }
