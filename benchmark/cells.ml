(* solve-cells: closed-loop Raha.Analysis.analyze on the three cells of
   BENCH_branching.json, round-robin, at a 60 s budget. Nearly all of an
   analysis is branch-and-bound, so this is the workload that shows
   probe, cut, heuristic and LP-kernel changes.

   The cells are fixed inputs: a solve's time changes chaotically with
   its instance (seed-generated africa-like cells of one family took
   0.16 s to 16 s), so no seed-drawn instance can enter a bounded
   metric. The seed only rotates the round-robin order. *)

type reference = { deg : float; bound : float; nodes : int }

type cell = {
  name : string;
  topo : Wan.Topology.t;
  paths : Netpath.Path_set.t;
  env : Traffic.Envelope.t;
  options : Raha.Analysis.options;
  reference : reference;
}

let budget = 60.

let spec ?threshold ?max_failures ~levels () =
  {
    Raha.Bilevel.default_spec with
    Raha.Bilevel.threshold;
    max_failures;
    encoding = Raha.Bilevel.Strong_duality { levels };
  }

(* Degradation and bound bits and node counts every analysis must
   reproduce, recorded at the commit that introduced the benchmark. *)
let fig1_ref nodes = { deg = 0x1.2000000f91baep+3; bound = 0x1.2000000f91baep+3; nodes }
let wan8_ref = { deg = 0x1.38p+6; bound = 0x1.38p+6; nodes = 8 }

(* Builds the inputs; returns them with the time spent computing paths. *)
let make_cells ~smoke =
  let paths_s = ref 0. in
  let paths_of ~primary ~backup topo pairs =
    let t0 = Unix.gettimeofday () in
    let p = Netpath.Path_set.compute ~n_primary:primary ~n_backup:backup topo pairs in
    paths_s := !paths_s +. (Unix.gettimeofday () -. t0);
    p
  in
  let cell name sp topo paths env reference =
    let options = { (Raha.Analysis.with_timeout budget) with Raha.Analysis.spec = sp; domains = 1 } in
    { name; topo; paths; env; options; reference }
  in
  let f1 = Wan.Generators.fig1 () in
  let f1_paths = paths_of ~primary:2 ~backup:0 f1 [ (1, 3); (2, 3) ] in
  let f1_env =
    Traffic.Envelope.around ~slack:0.5 (Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ])
  in
  let sd5 = spec ~max_failures:1 ~levels:5 () in
  let fig1 =
    [
      cell "fig1-sd5" sd5 f1 f1_paths f1_env (fig1_ref 44);
      cell "fig1-kkt" { sd5 with Raha.Bilevel.encoding = Raha.Bilevel.Kkt } f1 f1_paths f1_env
        (fig1_ref 33);
    ]
  in
  let cells =
    if smoke then fig1
    else begin
      let topo = Wan.Generators.africa_like ~seed:5 ~n:8 () in
      let pairs = [ (0, 5); (1, 6); (2, 7) ] in
      let paths = paths_of ~primary:2 ~backup:1 topo pairs in
      let env =
        Traffic.Envelope.from_zero ~slack:0.3
          (Traffic.Demand.of_list (List.map (fun p -> (p, 60.)) pairs))
      in
      fig1 @ [ cell "wan8-sd3" (spec ~threshold:1e-5 ~levels:3 ()) topo paths env wan8_ref ]
    end
  in
  (cells, !paths_s)

(* ---------------------------------------------------------------- *)
(* The analysis rebuilt from public calls, one span per layer.        *)

(* Analysis.screening_demand and Analysis.seed_candidates (not exported)
   restated over public APIs, sequential and batched, as analyze runs
   them at domains = 1. Each overlay's duration is recorded. *)
let screening_demand spec envelope =
  let pairs = Traffic.Envelope.pairs envelope in
  let corner volume =
    Traffic.Demand.of_list (List.map (fun (s, d) -> ((s, d), volume envelope ~src:s ~dst:d)) pairs)
  in
  match spec.Raha.Bilevel.goal with
  | Raha.Bilevel.Max_degradation -> corner Traffic.Envelope.hi_volume
  | Raha.Bilevel.Min_failed_performance -> corner Traffic.Envelope.lo_volume

let seed_candidates ~overlays eng spec topo paths envelope ~limit =
  let admissible s =
    (match spec.Raha.Bilevel.threshold with
    | Some t -> Failure.Scenario.prob topo s >= t
    | None -> true)
    && (match spec.Raha.Bilevel.max_failures with
       | Some k -> Failure.Scenario.num_failed s <= k
       | None -> true)
    && ((not spec.Raha.Bilevel.connected_enforced)
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
    Failure.Scenario.of_links topo (List.init (Wan.Lag.num_links lag) (fun i -> (e, i)))
  in
  let candidates =
    Failure.Scenario.empty
    :: List.init (Wan.Topology.num_lags topo) whole_lag
    @ (match spec.Raha.Bilevel.threshold with
      | Some t -> [ snd (Failure.Probability.max_simultaneous_failures topo ~threshold:t) ]
      | None -> [])
    |> List.filter admissible
  in
  let score s =
    match eng with
    | None -> neg_infinity
    | Some eng -> (
      let t0 = Unix.gettimeofday () in
      let v =
        match spec.Raha.Bilevel.goal with
        | Raha.Bilevel.Max_degradation -> (
          match Te.Simulate.degradation_prepared eng s with Some d -> d | None -> neg_infinity)
        | Raha.Bilevel.Min_failed_performance -> (
          match Te.Simulate.route_prepared eng s with
          | Some r -> (
            match spec.Raha.Bilevel.objective with
            | Te.Formulation.Mlu _ -> r.Te.Simulate.performance
            | Te.Formulation.Total_flow | Te.Formulation.Max_min _ ->
              -.r.Te.Simulate.performance)
          | None -> neg_infinity)
      in
      overlays := (Unix.gettimeofday () -. t0) :: !overlays;
      v)
  in
  let demand_for = screening_demand spec envelope in
  List.map (fun s -> (score s, s)) candidates
  |> List.filter (fun (sc, _) -> sc > neg_infinity)
  |> List.stable_sort (fun (a, _) (b, _) -> compare b a)
  |> List.filteri (fun i _ -> i < limit)
  |> List.map (fun (_, s) -> (s, demand_for))

type outcome = {
  o_status : Milp.Solver.status;
  o_cert_ok : bool;
  o_deg : float;
  o_bound : float;
  o_nodes : int;
  o_first_incumbent : float;  (** seconds after branch-and-bound started; nan if none *)
  o_rows : int;
  o_int_vars : int;
  o_presolve : Milp.Presolve.stats option;
}

(* Raha.Analysis.analyze followed by Milp.Solver.solve, inlined at their
   public seams: build, screening, presolve, branch-and-bound with the
   presolve mapping of hints and priorities, postsolve, certify. *)
let pipeline tr ~overlays (c : cell) =
  let o = c.options in
  let spec = o.Raha.Analysis.spec in
  let span name f = Trace.span tr name f in
  let built = span "bilevel.build" (fun () -> Raha.Bilevel.build spec c.topo c.paths c.env) in
  let model = built.Raha.Bilevel.model in
  let eng =
    span "screen.prepare" (fun () ->
        Raha.Analysis.screening_engine ~spec c.topo c.paths c.env)
  in
  let hints =
    span "screen.score" (fun () ->
        let limit = Option.value o.Raha.Analysis.seed_enumeration ~default:6 in
        if limit = 0 then []
        else
          seed_candidates ~overlays eng spec c.topo c.paths c.env ~limit
          |> List.map (fun (s, d) -> Raha.Bilevel.hint built ~scenario:s ~demand:d))
  in
  let base =
    {
      o_status = Milp.Solver.Unknown;
      o_cert_ok = false;
      o_deg = nan;
      o_bound = nan;
      o_nodes = 0;
      o_first_incumbent = nan;
      o_rows = Milp.Model.num_cons model;
      o_int_vars = Milp.Model.num_int_vars model;
      o_presolve = None;
    }
  in
  match span "presolve" (fun () -> Milp.Presolve.presolve model) with
  | Milp.Presolve.Infeasible stats -> { base with o_status = Milp.Solver.Infeasible; o_presolve = Some stats }
  | Milp.Presolve.Reduced { model = rm; post; stats } ->
    let d = Milp.Solver.default_options in
    let first = ref nan and bb_start = ref 0. in
    let bb_options =
      {
        Milp.Branch_bound.max_nodes = o.Raha.Analysis.max_nodes;
        time_limit = o.Raha.Analysis.time_limit;
        abs_gap = d.Milp.Solver.abs_gap;
        rel_gap = o.Raha.Analysis.rel_gap;
        int_tol = d.Milp.Solver.int_tol;
        log = o.Raha.Analysis.log;
        branch_priority =
          (fun rid -> built.Raha.Bilevel.branch_priority (Milp.Postsolve.orig_of_reduced post rid));
        warm_start = None;
        plunge_hints =
          List.filter_map
            (fun h -> match Milp.Postsolve.reduce_hint post h with [] -> None | h' -> Some h')
            hints;
        engine = (if o.Raha.Analysis.dense_simplex then Milp.Simplex.Dense else Milp.Simplex.Revised);
        cuts = o.Raha.Analysis.cuts;
        sx_iters = o.Raha.Analysis.sx_iters;
        pool = None;
        par_width = o.Raha.Analysis.bb_width;
        par_grain = o.Raha.Analysis.bb_grain;
        branching = o.Raha.Analysis.branching;
        heuristics = o.Raha.Analysis.heuristics;
        rins_freq = o.Raha.Analysis.rins_freq;
        on_incumbent =
          Some
            (fun _ ->
              if Float.is_nan !first then first := Unix.gettimeofday () -. !bb_start);
      }
    in
    let base = { base with o_presolve = Some stats } in
    if Milp.Model.num_int_vars rm = 0 then
      (* Solver.solve would take its pure-LP path; no cell reaches it *)
      base
    else begin
      let r =
        span "bb.solve" (fun () ->
            bb_start := Unix.gettimeofday ();
            Milp.Branch_bound.solve ~options:bb_options rm)
      in
      let values = span "postsolve" (fun () -> Milp.Postsolve.restore post r.Milp.Branch_bound.values) in
      let status =
        match r.Milp.Branch_bound.outcome with
        | Milp.Branch_bound.Optimal -> Milp.Solver.Optimal
        | Milp.Branch_bound.Feasible -> Milp.Solver.Feasible
        | Milp.Branch_bound.No_incumbent -> Milp.Solver.Unknown
        | Milp.Branch_bound.Infeasible -> Milp.Solver.Infeasible
        | Milp.Branch_bound.Unbounded -> Milp.Solver.Unbounded
      in
      let cert_ok =
        match status with
        | Milp.Solver.Optimal | Milp.Solver.Feasible ->
          let tols =
            {
              Milp.Certify.default_tolerances with
              int_tol =
                Float.max Milp.Certify.default_tolerances.Milp.Certify.int_tol
                  (10. *. d.Milp.Solver.int_tol);
              abs_gap = d.Milp.Solver.abs_gap;
              rel_gap = o.Raha.Analysis.rel_gap;
            }
          in
          let cert =
            span "certify" (fun () ->
                Milp.Certify.check ~tols ~optimal:(status = Milp.Solver.Optimal) ~model
                  ~obj:r.Milp.Branch_bound.obj ~bound:r.Milp.Branch_bound.bound ~values
                  ~statuses:[||] ())
          in
          cert.Milp.Certify.ok
        | _ -> false
      in
      {
        base with
        o_status = status;
        o_cert_ok = cert_ok;
        o_deg = Milp.Linexpr.eval values built.Raha.Bilevel.degradation;
        o_bound = r.Milp.Branch_bound.bound;
        o_nodes = r.Milp.Branch_bound.stats.Milp.Branch_bound.nodes;
        o_first_incumbent = !first;
      }
    end

(* ---------------------------------------------------------------- *)
(* The workload.                                                       *)

let check_outcome (c : cell) ~status ~cert_ok ~deg ~bound ~nodes =
  let r = c.reference in
  if status <> Milp.Solver.Optimal then
    Some (Format.asprintf "%s: status %a" c.name Milp.Solver.pp_status status)
  else if not cert_ok then Some (c.name ^ ": certificate failed")
  else if
    Int64.bits_of_float deg <> Int64.bits_of_float r.deg
    || Int64.bits_of_float bound <> Int64.bits_of_float r.bound
  then Some (Printf.sprintf "%s: degradation %h / bound %h differ from the reference" c.name deg bound)
  else if nodes <> r.nodes then
    Some (Printf.sprintf "%s: %d nodes, reference %d" c.name nodes r.nodes)
  else None

let rotate k l =
  let n = List.length l in
  let k = ((k mod n) + n) mod n in
  List.filteri (fun i _ -> i >= k) l @ List.filteri (fun i _ -> i < k) l

let run ~seed ~seconds ~trace ~smoke ~trace_out =
  (* set-up runs five times before the measured loop and five times
     after it, so its median spans the run rather than its first moments *)
  let setups = ref [] in
  let setup () =
    let t0 = Unix.gettimeofday () in
    let cells, paths_s = make_cells ~smoke in
    setups := (Unix.gettimeofday () -. t0, paths_s) :: !setups;
    cells
  in
  let cells = List.hd (List.init 5 (fun _ -> setup ())) in
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  let attempted = ref 0 in
  (* per cell: untraced wall times, its deterministic counters *)
  let walls = Hashtbl.create 4 and records = Hashtbl.create 4 in
  let traced_walls = Hashtbl.create 4 in
  let add tbl k v = Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[]) in
  let tr = Trace.create "solve-cells" in
  let overlays = ref [] and first_incumbent = ref 0. in
  let analyze_once (c : cell) =
    incr attempted;
    let scope = Milp.Lp_stats.scope_enter ~hooks:Trace.hooks () in
    let t0 = Unix.gettimeofday () in
    let r = Raha.Analysis.analyze ~options:c.options c.topo c.paths c.env in
    let dt = Unix.gettimeofday () -. t0 in
    let rep = Milp.Lp_stats.scope_exit scope in
    let cert_ok =
      match r.Raha.Analysis.certificate with Some x -> x.Milp.Certify.ok | None -> false
    in
    (match
       check_outcome c ~status:r.Raha.Analysis.status ~cert_ok ~deg:r.Raha.Analysis.degradation
         ~bound:r.Raha.Analysis.bound ~nodes:r.Raha.Analysis.nodes
     with
    | Some m -> fail m
    | None -> ());
    let record = Trace.record rep.Milp.Lp_stats.scope_counters in
    (match Hashtbl.find_opt records c.name with
    | Some prev when prev <> record -> fail (c.name ^ ": counters differ between repetitions")
    | _ -> Hashtbl.replace records c.name record);
    add walls c.name dt
  in
  let traced_once (c : cell) =
    incr attempted;
    let t0 = Unix.gettimeofday () in
    let o = Trace.span tr ~op:!attempted "analyze" (fun () -> pipeline tr ~overlays c) in
    add traced_walls c.name (Unix.gettimeofday () -. t0);
    (* the rebuilt pipeline must do exactly the work analyze does *)
    if Trace.record (Trace.last tr).Trace.counters <> Hashtbl.find records c.name then
      fail ("traced " ^ c.name ^ ": counters differ from analyze");
    if not (Float.is_nan o.o_first_incumbent) then
      first_incumbent := !first_incumbent +. o.o_first_incumbent;
    (match
       check_outcome c ~status:o.o_status ~cert_ok:o.o_cert_ok ~deg:o.o_deg ~bound:o.o_bound
         ~nodes:o.o_nodes
     with
    | Some m -> fail ("traced " ^ m)
    | None -> ());
    o
  in
  let start = Unix.gettimeofday () in
  let rounds = ref 0 and outcomes = ref [] in
  while !rounds = 0 || Unix.gettimeofday () -. start < seconds do
    List.iter
      (fun c ->
        analyze_once c;
        if trace then outcomes := traced_once c :: !outcomes)
      (rotate (seed + !rounds) cells);
    incr rounds
  done;
  for _ = 1 to 5 do ignore (setup ()) done;
  let setup_s = Stats.median (List.map fst !setups) and paths_s = Stats.median (List.map snd !setups) in
  let medians = List.map (fun (c : cell) -> (c.name, Stats.median (Hashtbl.find walls c.name))) cells in
  let gmean = Stats.gmean (List.map snd medians) in
  let max_med = List.fold_left (fun acc (_, m) -> Float.max acc m) 0. medians in
  let passes = float_of_int !rounds in
  let per_pass name = Trace.total tr name /. passes in
  let cnt name key = float_of_int (Trace.counter tr name key) /. passes in
  let ratio num den = if den = 0. then 0. else num /. den in
  let bb_nodes = cnt "bb.solve" "bb-nodes" in
  let per_layer =
    if not trace then []
    else begin
      let traced_gmean =
        Stats.gmean
          (List.map (fun (c : cell) -> Stats.median (Hashtbl.find traced_walls c.name)) cells)
      in
      let sum_outcome f =
        float_of_int (List.fold_left (fun acc o -> acc + f o) 0 !outcomes) /. passes
      in
      let presolve_stat f =
        sum_outcome (fun o -> match o.o_presolve with Some s -> f s | None -> 0)
      in
      [
        ("bb.search_s", per_pass "bb.solve");
        ("bb.first_incumbent_s", !first_incumbent /. passes);
        ("bb.nodes", bb_nodes);
        ("bb.pivots_per_node", ratio (cnt "bb.solve" "simplex") bb_nodes);
        ("bb.sb_probes", cnt "bb.solve" "sb-probes");
        ("bb.pseudocost_updates", cnt "bb.solve" "pseudocost-updates");
        ("bb.heuristic_solutions", cnt "bb.solve" "heuristic-solutions");
        ("bb.rounds", cnt "bb.solve" "bb-rounds");
        ("bb.warm_hit_ratio", ratio (cnt "bb.solve" "warm-hits") (cnt "bb.solve" "warm-attempts"));
        ( "bb.cuts_applied_ratio",
          ratio (cnt "bb.solve" "cuts-applied") (cnt "bb.solve" "cuts-generated") );
        ("presolve.s", per_pass "presolve");
        ("presolve.rows_removed", presolve_stat (fun s -> s.Milp.Presolve.rows_removed));
        ("presolve.cols_fixed", presolve_stat (fun s -> s.Milp.Presolve.cols_fixed));
        ("bilevel.build_s", per_pass "bilevel.build");
        ("bilevel.rows", sum_outcome (fun o -> o.o_rows));
        ("bilevel.int_vars", sum_outcome (fun o -> o.o_int_vars));
        ("screen.prepare_s", per_pass "screen.prepare");
        ("screen.score_s", per_pass "screen.score");
        ("certify.s", per_pass "certify");
        ("certify.checks", cnt "certify" "certify-checks");
        ("certify.failures", cnt "certify" "certify-failures");
        ("paths.s", paths_s);
        ("batch.prepare_s", per_pass "screen.prepare");
        ("batch.overlay_us", 1e6 *. Stats.median !overlays);
        ( "batch.factorizations",
          cnt "screen.prepare" "factorizations" +. cnt "screen.score" "factorizations" );
        ( "batch.warm_hit_ratio",
          ratio (cnt "screen.score" "batch-warm-hits") (cnt "screen.score" "batch-overlays") );
        ("trace.overhead_frac", (traced_gmean /. gmean) -. 1.);
        ("trace.coverage_frac", Trace.coverage tr "analyze");
      ]
    end
  in
  (match trace_out with Some p when trace -> Trace.write tr p | _ -> ());
  {
    Output.attempted = !attempted;
    failures = List.rev !failures;
    end_to_end =
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", Output.peak_rss_mb None);
        ("p50_ms", 1000. *. gmean);
        ("max_p50_ms", 1000. *. max_med);
      ];
    per_layer;
    details =
      Output.metric "analyze_gmean_s" "s" gmean
      :: Output.metric "analyze_max_s" "s" max_med
      :: Output.metric "rounds" "count" passes
      :: List.map (fun (n, m) -> Output.metric ("analyze_s." ^ n) "s" m) medians;
    counters =
      String.concat " | "
        (List.map
           (fun (c : cell) -> Printf.sprintf "%s: %s" c.name (Hashtbl.find records c.name))
           cells);
  }
