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
    bb_width = Milp.Branch_bound.default.par_width;
    bb_grain = Milp.Branch_bound.default.par_grain;
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

(* Evaluate [f] over the array on [analyze]'s pool (one per call,
   shared with the MILP core; there is none at one domain);
   order-preserving, so downstream ranking is identical whatever the
   parallelism. *)
let par_map ?pool f arr =
  match pool with
  | Some pool when Array.length arr >= 2 -> Parallel.Pool.map_array pool f arr
  | Some _ | None -> Array.map f arr

(* The demand the candidate screening sweeps route: the envelope corner
   matching the spec's goal. *)
let screening_demand spec envelope =
  let pairs = Traffic.Envelope.pairs envelope in
  let corner volume =
    Traffic.Demand.of_list
      (List.map (fun (s, d) -> ((s, d), volume envelope ~src:s ~dst:d)) pairs)
  in
  match spec.Bilevel.goal with
  | Bilevel.Max_degradation -> corner Traffic.Envelope.hi_volume
  | Bilevel.Min_failed_performance -> corner Traffic.Envelope.lo_volume

let screening_engine ~spec topo paths envelope =
  Te.Simulate.prepare ~objective:spec.Bilevel.objective topo paths
    (screening_demand spec envelope)

(* Candidate (scenario, demand) seeds: the empty scenario, each single
   whole-LAG failure, and the greedy most-probable multi-failure scenario
   — filtered by the spec's constraints and ranked by simulated impact.
   Each becomes a plunge hint (a warm start for the MILP search). *)
let seed_candidates ?screen ?pool spec topo paths envelope ~limit =
  let admissible s =
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
  in
  let whole_lag e =
    let lag = Wan.Topology.lag topo e in
    Failure.Scenario.of_links topo
      (List.init (Wan.Lag.num_links lag) (fun i -> (e, i)))
  in
  let candidates =
    Failure.Scenario.empty
    :: List.init (Wan.Topology.num_lags topo) whole_lag
    @ (match spec.Bilevel.threshold with
      | Some t -> [ snd (Failure.Probability.max_simultaneous_failures topo ~threshold:t) ]
      | None -> [])
  in
  let candidates = List.filter admissible candidates in
  let demand_for = screening_demand spec envelope in
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
  let scored =
    (* one independent scenario solve per candidate: the sweep the pool
       parallelizes; scores come back in candidate order *)
    let arr = Array.of_list candidates in
    Array.to_list (par_map ?pool (fun s -> (score s, s)) arr)
    |> List.filter (fun (sc, _) -> sc > neg_infinity)
    |> List.sort (fun (a, _) (b, _) -> compare b a)
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  List.map (fun (_, s) -> (s, demand_for)) (take limit scored)

let analyze_with ?screen ?(extra_cuts = []) ?pool ~options topo paths envelope =
  let built = Bilevel.build options.spec topo paths envelope in
  (* Caller-supplied valid inequalities (the service's fresh cover and
     clique cuts; see Milp.Cuts.separate_structural) join the model as
     ordinary rows before presolve. Their ids must speak this build's
     variable indexing — Bilevel.build is deterministic, so two builds
     over equal inputs agree. *)
  List.iteri
    (fun i (c : Milp.Cuts.structural) ->
      Milp.Model.add_cons built.Bilevel.model
        ~name:(Printf.sprintf "persist_%s_cut%d" (Milp.Cuts.family_name c.Milp.Cuts.s_family) i)
        (Milp.Linexpr.of_terms c.Milp.Cuts.s_terms)
        Milp.Model.Le c.Milp.Cuts.s_rhs)
    extra_cuts;
  let hints =
    match options.seed_enumeration with
    | Some 0 -> []
    | limit ->
      let limit = Option.value limit ~default:6 in
      seed_candidates ?screen ?pool options.spec topo paths envelope ~limit
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
      pool;
      par_width = options.bb_width;
      par_grain = options.bb_grain;
      branching = options.branching;
      heuristics = options.heuristics;
      rins_freq = options.rins_freq;
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

(* One pool per analysis, shared by the candidate-screening sweep and
   the branch-and-bound subtree rounds. A caller-held pool ([?pool]) is
   borrowed instead; inside a pool task the pool gets one domain — the
   nested levels run their exact sequential paths, so results are
   identical either way. *)
let analyze ?screen ?extra_cuts ?pool ?(options = default_options) topo paths
    envelope =
  match pool with
  | None when options.domains > 1 ->
    Parallel.Pool.with_pool ~domains:options.domains (fun pool ->
        analyze_with ?screen ?extra_cuts ~pool ~options topo paths envelope)
  | None -> analyze_with ?screen ?extra_cuts ~options topo paths envelope
  | Some pool -> analyze_with ?screen ?extra_cuts ~pool ~options topo paths envelope

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
