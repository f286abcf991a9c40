type options = {
  spec : Bilevel.spec;
  time_limit : float;
  max_nodes : int;
  rel_gap : float;
  log : bool;
  seed_enumeration : int option;
  domains : int;
  dense_simplex : bool;
  cuts : Milp.Cuts.options;
  sx_iters : int option;
  bb_width : int;
  bb_grain : int;
  branching : Milp.Branch_bound.branching;
  heuristics : bool;
  rins_freq : int;
}

let default_options =
  {
    spec = Bilevel.default_spec;
    time_limit = Float.infinity;
    max_nodes = 500_000;
    rel_gap = 1e-4;
    log = false;
    seed_enumeration = None;
    domains = 1;
    dense_simplex = false;
    cuts = Milp.Cuts.default;
    sx_iters = None;
    bb_width = 0;
    bb_grain = 0;
    branching = Milp.Branch_bound.default.branching;
    heuristics = Milp.Branch_bound.default.heuristics;
    rins_freq = Milp.Branch_bound.default.rins_freq;
  }

let with_timeout t = { default_options with time_limit = t }

type report = {
  status : Milp.Solver.status;
  degradation : float;
  normalized : float;
  bound : float;
  scenario : Failure.Scenario.t;
  scenario_prob : float;
  num_failed_links : int;
  worst_demand : Traffic.Demand.t;
  healthy_performance : float;
  failed_performance : float;
  per_pair : ((int * int) * float * float) list;
  certificate : Milp.Certify.t option;
  elapsed : float;
  nodes : int;
}

(* The demand the candidate screening sweeps route: the envelope corner
   matching the spec's goal. *)
let screening_demand spec (envelope : Traffic.Envelope.t) =
  match spec.Bilevel.goal with
  | Bilevel.Max_degradation -> envelope.Traffic.Envelope.hi
  | Bilevel.Min_failed_performance -> envelope.Traffic.Envelope.lo

let screening_engine ~spec topo paths envelope =
  Te.Simulate.prepare ~objective:spec.Bilevel.objective topo paths
    (screening_demand spec envelope)

(* A scenario the spec admits: probability at least the threshold under
   the topology's estimates, at most [max_failures] failed links, and,
   under connectivity enforcement, every pair keeps a path up. *)
let admissible spec topo paths s =
  (match spec.Bilevel.threshold with
  | Some t -> Failure.Scenario.prob topo s >= t
  | None -> true)
  && (match spec.Bilevel.max_failures with
     | Some k -> Failure.Scenario.num_failed s <= k
     | None -> true)
  && ((not spec.Bilevel.connected_enforced)
     || List.for_all
          (fun (p : Netpath.Path_set.pair) ->
            List.exists
              (fun path ->
                not (Failure.Scenario.path_down topo s (Netpath.Path.lag_list path)))
              (Netpath.Path_set.all_paths p))
          paths)

type candidates = {
  c_goal : Bilevel.goal;
  c_demand : Traffic.Demand.t;  (* the screening demand they were replayed at *)
  seeds : (float * Failure.Scenario.t) list;  (* best first *)
  pooled : (float * Failure.Scenario.t) list;
}

(* The candidate scenarios: the empty scenario, each single whole-LAG
   failure and the greedy most-probable multi-failure scenario, plus the
   caller's [pooled] ones that none of these equals — each kept only if
   admissible, then replayed once at the screening demand and ranked by
   simulated impact. The seeds (not the pooled ones) become plunge
   hints, warm starts for the MILP search. *)
let screen_candidates ?screen ?(pooled = []) ~spec topo paths envelope =
  let whole_lag e =
    let lag = Wan.Topology.lag topo e in
    Failure.Scenario.of_links topo
      (List.init (Wan.Lag.num_links lag) (fun i -> (e, i)))
  in
  let seeds =
    Failure.Scenario.empty
    :: List.init (Wan.Topology.num_lags topo) whole_lag
    @ (match spec.Bilevel.threshold with
      | Some t -> [ snd (Failure.Probability.max_simultaneous_failures topo ~threshold:t) ]
      | None -> [])
  in
  let pooled =
    List.filter (fun s -> not (List.exists (Failure.Scenario.equal s) seeds)) pooled
  in
  (* one engine for the whole candidate sweep: prepare + healthy solve
     once, then a warm overlay per candidate. A caller holding a persistent engine for this
     (spec, topo, paths, envelope) — the always-on service — passes it
     as [?screen] and skips the prepare entirely. *)
  let eng =
    match screen with
    | Some _ -> screen
    | None -> screening_engine ~spec topo paths envelope
  in
  let score s =
    match eng with
    | None -> neg_infinity (* healthy network cannot route the demand *)
    | Some eng -> (
      match spec.Bilevel.goal with
      | Bilevel.Max_degradation -> (
        match Te.Simulate.degradation_prepared eng s with
        | Some d -> d
        | None -> neg_infinity)
      | Bilevel.Min_failed_performance -> (
        match Te.Simulate.route_prepared eng s with
        | Some r -> (
          match spec.Bilevel.objective with
          | Te.Formulation.Mlu _ -> r.Te.Simulate.performance
          | Te.Formulation.Total_flow | Te.Formulation.Max_min _ ->
            -.r.Te.Simulate.performance)
        | None -> neg_infinity))
  in
  let scored l =
    List.filter (admissible spec topo paths) l
    |> List.map (fun s -> (score s, s))
    |> List.filter (fun (sc, _) -> sc > neg_infinity)
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  {
    c_goal = spec.Bilevel.goal;
    c_demand = screening_demand spec envelope;
    seeds = scored seeds;
    pooled = scored pooled;
  }

let best_candidate c =
  match (c.c_goal, c.seeds @ c.pooled) with
  | Bilevel.Min_failed_performance, _ | _, [] -> None
  | Bilevel.Max_degradation, first :: rest ->
    let d, s = List.fold_left (fun (a, x) (b, y) -> if b > a then (b, y) else (a, x)) first rest in
    Some (s, d)

(* The [limit] best seeds as plunge hints, from [candidates] when they
   were replayed at this analysis's screening demand, else from a fresh
   screening. *)
let seed_candidates ?screen ?candidates spec topo paths envelope ~limit =
  let demand = screening_demand spec envelope in
  let c =
    match candidates with
    | Some c
      when c.c_goal = spec.Bilevel.goal
           && Traffic.Demand.entries c.c_demand = Traffic.Demand.entries demand ->
      c
    | _ -> screen_candidates ?screen ~spec topo paths envelope
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | (_, s) :: tl -> (s, demand) :: take (n - 1) tl
  in
  take limit c.seeds

let analyze ?screen ?candidates ?(options = default_options) topo paths envelope =
  let built = Bilevel.build options.spec topo paths envelope in
  let hints =
    match options.seed_enumeration with
    | Some 0 -> []
    | limit ->
      let limit = Option.value limit ~default:6 in
      seed_candidates ?screen ?candidates options.spec topo paths envelope ~limit
      |> List.map (fun (s, d) -> Bilevel.hint built ~scenario:s ~demand:d)
  in
  let solver_options =
    {
      Milp.Solver.default_options with
      time_limit = options.time_limit;
      max_nodes = options.max_nodes;
      rel_gap = options.rel_gap;
      log = options.log;
      branch_priority = built.Bilevel.branch_priority;
      plunge_hints = hints;
      engine = (if options.dense_simplex then Milp.Simplex.Dense else Milp.Simplex.Revised);
      cuts = options.cuts;
      sx_iters = options.sx_iters;
      branching = options.branching;
    }
  in
  let sol = Milp.Solver.solve ~options:solver_options built.Bilevel.model in
  let have_point = Milp.Solver.has_point sol in
  let scenario =
    if have_point then Failure_model.scenario_of_solution built.Bilevel.fm sol
    else Failure.Scenario.empty
  in
  let worst_demand =
    if have_point then Bilevel.demand_of_solution built sol else Traffic.Demand.empty
  in
  let evale e = if have_point then Milp.Linexpr.eval sol.Milp.Solver.values e else nan in
  (* For Max_min the optimizer maximizes the binned-surrogate gap
     (Appendix A) but the performance reported to operators is the total
     flow the networks carry, read off the primal flow columns. *)
  let flow_perf (inner : Inner.t) index =
    if not have_point then nan
    else begin
      let xs =
        Array.map (fun (v : Milp.Model.var) -> sol.Milp.Solver.values.(v.Milp.Model.vid))
          inner.Inner.xs
      in
      Te.Formulation.total_flow index xs
    end
  in
  let healthy_performance, failed_performance =
    match options.spec.Bilevel.objective with
    | Te.Formulation.Max_min _ ->
      ( flow_perf built.Bilevel.healthy built.Bilevel.healthy_index,
        flow_perf built.Bilevel.failed built.Bilevel.failed_index )
    | Te.Formulation.Mlu _ | Te.Formulation.Total_flow ->
      ( evale built.Bilevel.healthy.Inner.objective,
        evale built.Bilevel.failed.Inner.objective )
  in
  let degradation =
    if not have_point then nan
    else
      match options.spec.Bilevel.objective with
      | Te.Formulation.Max_min _ -> healthy_performance -. failed_performance
      | Te.Formulation.Mlu _ | Te.Formulation.Total_flow ->
        evale built.Bilevel.degradation
  in
  (* per-pair healthy/failed flows at the worst-case demand: from the
     embedded primal columns when present, otherwise (fixed-demand fast
     path) by replaying the healthy network in the simulator *)
  let per_pair =
    if not have_point then []
    else begin
      let failed_flows =
        Array.map
          (fun (v : Milp.Model.var) -> sol.Milp.Solver.values.(v.Milp.Model.vid))
          built.Bilevel.failed.Inner.xs
      in
      let healthy_flow_of =
        if Array.length built.Bilevel.healthy.Inner.xs > 0 then begin
          let xs =
            Array.map
              (fun (v : Milp.Model.var) -> sol.Milp.Solver.values.(v.Milp.Model.vid))
              built.Bilevel.healthy.Inner.xs
          in
          fun k -> Te.Formulation.pair_flow built.Bilevel.healthy_index k xs
        end
        else begin
          match
            Te.Simulate.healthy ~objective:options.spec.Bilevel.objective topo paths
              worst_demand
          with
          | Some h ->
            fun k -> Te.Formulation.pair_flow h.Te.Simulate.index k h.Te.Simulate.flows
          | None -> fun _ -> nan
        end
      in
      Array.to_list
        (Array.mapi
           (fun k (pc : Te.Formulation.pair_cols) ->
             ( (pc.Te.Formulation.src, pc.Te.Formulation.dst),
               healthy_flow_of k,
               Te.Formulation.pair_flow built.Bilevel.failed_index k failed_flows ))
           built.Bilevel.failed_index.Te.Formulation.pair_arr)
    end
  in
  let avg_cap = Float.max 1e-9 (Wan.Topology.avg_lag_capacity topo) in
  {
    status = sol.Milp.Solver.status;
    degradation;
    normalized = degradation /. avg_cap;
    bound = sol.Milp.Solver.bound;
    scenario;
    scenario_prob =
      (if have_point then Failure.Scenario.prob topo scenario else nan);
    num_failed_links = Failure.Scenario.num_failed scenario;
    worst_demand;
    healthy_performance;
    failed_performance;
    per_pair;
    certificate = sol.Milp.Solver.certificate;
    elapsed = sol.Milp.Solver.elapsed;
    nodes = sol.Milp.Solver.nodes;
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>status: %a@,degradation: %.4g (normalized %.4g, bound %.4g)@,\
     healthy: %.4g  failed: %.4g@,scenario: %a (%d links, p = %.3g)@,\
     elapsed: %.2fs over %d nodes@]"
    Milp.Solver.pp_status r.status r.degradation r.normalized r.bound
    r.healthy_performance r.failed_performance Failure.Scenario.pp r.scenario
    r.num_failed_links r.scenario_prob r.elapsed r.nodes

let pp_explanation topo ppf r =
  Format.fprintf ppf "@[<v>";
  (match Failure.Scenario.links r.scenario with
  | [] -> Format.fprintf ppf "no failure needed: the network is not at risk@,"
  | links ->
    Format.fprintf ppf "failure scenario (probability %.3g):@," r.scenario_prob;
    List.iter
      (fun (e, i) ->
        let lag = Wan.Topology.lag topo e in
        Format.fprintf ppf "  link %d of LAG %s-%s goes down%s@," i
          (Wan.Topology.node_name topo lag.Wan.Lag.src)
          (Wan.Topology.node_name topo lag.Wan.Lag.dst)
          (if Failure.Scenario.lag_down topo r.scenario e then " (LAG fully down)"
           else ""))
      links);
  Format.fprintf ppf "impact at the worst-case demand:@,";
  List.iter
    (fun ((src, dst), h, f) ->
      if h -. f > 1e-6 then
        Format.fprintf ppf "  %s -> %s: carries %.4g of %.4g (loses %.4g)@,"
          (Wan.Topology.node_name topo src)
          (Wan.Topology.node_name topo dst)
          f h (h -. f))
    r.per_pair;
  Format.fprintf ppf
    "total: healthy %.4g, failed %.4g — degradation %.4g (%.3g LAG capacities)@]"
    r.healthy_performance r.failed_performance r.degradation r.normalized
