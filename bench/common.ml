(* Shared scaffolding for the per-figure/per-table experiments.

   Every experiment prints its configuration first: the bundled MILP
   solver replaces Gurobi, so defaults are scaled-down versions of the
   paper's setups (DESIGN.md, "Substitutions"); the [--full] flag raises
   sizes and budgets. *)

type ctx = {
  budget : float;  (** per-solve wall-clock budget, seconds *)
  full : bool;
  quick : bool;  (** trimmed grids for smoke runs *)
  domains : int;
      (** OCaml domains for the scenario-sweep experiments and the MILP
          core (parallel branch-and-bound rounds, concurrent cluster
          blocks); results are bit-identical for any value *)
}

let default_ctx = { budget = 10.; full = false; quick = false; domains = 1 }

let printf = Format.printf

let section ctx ~id ~paper ~config =
  printf "@.=== %s: %s ===@." id paper;
  printf "config: %s (budget %gs/solve%s)@." config ctx.budget
    (if ctx.full then ", full" else "")

let row fmt = Format.printf fmt

(* --- reference topologies --------------------------------------------- *)

(* Variable-demand workhorse: solves to optimality in well under a
   second, with the multi-link LAGs and flaky-south structure of the
   production WAN (§8.1). *)
let wan_small () =
  let topo = Wan.Generators.africa_like ~seed:5 ~n:8 () in
  (topo, [ (0, 5); (1, 6); (2, 7) ])

(* Larger stand-in used by fixed-demand experiments. *)
let wan_large () =
  let topo = Wan.Generators.africa_like ~seed:5 ~n:10 () in
  (topo, [ (0, 7); (1, 8); (2, 9); (5, 8) ])

let paths_of ?scheme ?(primary = 2) ?(backup = 1) topo pairs =
  Netpath.Path_set.compute ?scheme ~n_primary:primary ~n_backup:backup topo pairs

let base_demand ?(volume = 60.) pairs =
  Traffic.Demand.of_list (List.map (fun p -> (p, volume)) pairs)

(* --- solving helpers ---------------------------------------------------- *)

let spec ?(objective = Te.Formulation.Total_flow) ?threshold ?max_failures ?(ce = false)
    ?(levels = 3) ?(goal = Raha.Bilevel.Max_degradation) () =
  {
    Raha.Bilevel.default_spec with
    Raha.Bilevel.objective;
    threshold;
    max_failures;
    connected_enforced = ce;
    goal;
    encoding = Raha.Bilevel.Strong_duality { levels };
  }

let options ctx spec =
  { (Raha.Analysis.with_timeout ctx.budget) with spec; domains = ctx.domains }

(* Deterministic certificate summary for the [counters:] lines CI diffs:
   verdict plus the max primal residual rounded to one significant digit
   (full-precision residuals are engine-version noise, their magnitude is
   the signal). *)
let cert_str (r : Raha.Analysis.report) =
  match r.Raha.Analysis.certificate with
  | None -> "-"
  | Some c ->
    if not c.Milp.Certify.ok then "FAIL"
    else if c.Milp.Certify.max_primal_residual = 0. then "ok@0"
    else Printf.sprintf "ok@%.0e" c.Milp.Certify.max_primal_residual

let analyze ctx sp topo paths envelope =
  Raha.Analysis.analyze ~options:(options ctx sp) topo paths envelope

(* Evaluate one independent cell per array entry across ctx.domains
   domains, order-preserving, and emit the per-sweep stats line. Cells
   carry options.domains = ctx.domains, but a pool created inside a
   pool task gets one domain — nested scopes run their exact
   sequential paths — so the parallelism stays at the sweep level here
   and results match the sequential run bit for bit. *)
let par_cells ctx f cells =
  if ctx.domains <= 1 || Array.length cells < 2 then Array.map f cells
  else
    Parallel.Pool.with_pool ~domains:ctx.domains (fun pool ->
        let out = Parallel.Pool.map_array pool f cells in
        row "%a@." Parallel.Pool.pp_stats (Parallel.Pool.stats pool);
        out)

(* Normalized degradation string with a gap marker when the solve hit its
   budget (the paper's timeout behaviour, §6). *)
let deg_str (r : Raha.Analysis.report) =
  match r.Raha.Analysis.status with
  | Milp.Solver.Optimal -> Printf.sprintf "%.2f" r.Raha.Analysis.normalized
  | Milp.Solver.Feasible -> Printf.sprintf "%.2f*" r.Raha.Analysis.normalized
  | Milp.Solver.Infeasible -> "infeas"
  | Milp.Solver.Unbounded -> "unbnd"
  | Milp.Solver.Unknown -> "?"

let k_str = function Some k -> string_of_int k | None -> "inf"

(* --- ablation harness ----------------------------------------------------

   The on/off experiments share one shape: bilevel cells, a list of arms
   (a name plus an override of Raha.Analysis.options) and one runner.
   Every run sits inside a counter scope and prints a table row (with
   its wall time) and a [counters:] line carrying the fields the
   experiment names — deterministic quantities only, so CI runs the
   experiments twice and diffs the lines. An arm runs sequentially
   unless it asks for a pool; a pooled arm runs at ctx.domains. Either
   way the scope sees all the work of the run, since the pool credits
   what its worker domains count back to the calling domain. *)

let counter_hooks =
  Milp.Solver.stats_counters @ [ ("bb-rounds", Milp.Branch_bound.cumulative_rounds) ]

(* [scoped f]: [f ()], the calling domain's counter deltas, wall time *)
let scoped f =
  let scope = Milp.Lp_stats.scope_enter ~hooks:counter_hooks () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let wall = Unix.gettimeofday () -. t0 in
  (x, (Milp.Lp_stats.scope_exit scope).Milp.Lp_stats.scope_counters, wall)

let count counts k = Option.value (List.assoc_opt k counts) ~default:0

(* field name on a counters: line -> scope counter *)
let counter_fields =
  [
    ("pivots", "simplex"); ("dual", "dual-pivots"); ("fact", "factorizations");
    ("eta", "eta-updates"); ("gen", "cuts-generated"); ("app", "cuts-applied");
    ("aud", "cut-audit-failures"); ("sb", "sb-probes"); ("pcu", "pseudocost-updates");
    ("hs", "heuristic-solutions"); ("hr", "heuristic-rejections");
    ("refuted", "hint-refutes"); ("rounds", "bb-rounds");
    ("bwarm", "batch-warm-hits"); ("overlays", "batch-overlays");
    ("prepares", "batch-prepares");
  ]

let count_fields counts =
  let c = count counts in
  ("warm", Printf.sprintf "%d/%d" (c "warm-hits") (c "warm-attempts"))
  :: ("certify", Printf.sprintf "%d/%d" (c "certify-failures") (c "certify-checks"))
  :: List.map (fun (f, k) -> (f, string_of_int (c k))) counter_fields

let bound_bits (r : Raha.Analysis.report) = Int64.bits_of_float r.Raha.Analysis.bound

let report_fields (r : Raha.Analysis.report) =
  [
    ("deg", deg_str r); ("bound", Printf.sprintf "%016Lx" (bound_bits r));
    ("nodes", string_of_int r.Raha.Analysis.nodes); ("cert", cert_str r);
  ]

(* what the domains 1 vs N gate diffs: degradation and bound bits,
   result nodes, pivots, warm starts, rounds, certificate and its check
   counts, cut audits *)
let identity_fields =
  [ "deg"; "bound"; "nodes"; "pivots"; "warm"; "rounds"; "cert"; "certify"; "aud" ]

let print_header fields =
  row "%-14s %-10s %-8s%s@." "cell" "arm" "time(s)"
    (String.concat "" (List.map (Printf.sprintf " %-9s") fields))

(* one table row plus its counters: line; [values] maps every field the
   experiment names to its printed value. A run stopped by its wall-clock
   budget did clock-dependent work, so its counters: line says only that. *)
let print_run ?(budget_hit = false) ~id ~cell ~arm ~fields ~wall values =
  let picked = List.map (fun f -> (f, List.assoc f values)) fields in
  row "%-14s %-10s %-8.2f%s@." cell arm wall
    (String.concat "" (List.map (fun (_, v) -> Printf.sprintf " %-9s" v) picked));
  row "counters: %s | %s | %s | %s@." id cell arm
    (if budget_hit then "budget-limited"
     else String.concat " " (List.map (fun (f, v) -> f ^ "=" ^ v) picked))

type arm = {
  arm : string;
  set : Raha.Analysis.options -> Raha.Analysis.options;
  pooled : bool;  (** run on a ctx.domains-wide pool *)
}

let arm ?(pooled = false) arm set = { arm; set; pooled }

(* Run every arm on every (name, spec, topo, paths, envelope) cell;
   returns, per cell, each arm's report and counter deltas. *)
let ablate ctx ~id ~fields cells arms =
  print_header fields;
  List.map
    (fun (name, sp, topo, paths, env) ->
      ( name,
        List.map
          (fun a ->
            let domains = if a.pooled then ctx.domains else 1 in
            let options = a.set { (options ctx sp) with Raha.Analysis.domains } in
            let solve pool =
              scoped (fun () -> Raha.Analysis.analyze ?pool ~options topo paths env)
            in
            let r, counts, wall =
              if domains <= 1 then solve None
              else
                Parallel.Pool.with_pool ~domains (fun pool ->
                    let run = solve (Some pool) in
                    row "%a@." Parallel.Pool.pp_stats (Parallel.Pool.stats pool);
                    run)
            in
            print_run ~id ~cell:name ~arm:a.arm ~fields ~wall
              ~budget_hit:(r.Raha.Analysis.elapsed >= options.Raha.Analysis.time_limit)
              (report_fields r @ count_fields counts);
            (a.arm, (r, counts)))
          arms ))
    cells

(* Sum of one counter over the runs of the arms [keep] selects. *)
let total ?(keep = fun _ -> true) runs k =
  List.fold_left
    (fun acc (_, arms) ->
      List.fold_left
        (fun acc (a, (_, counts)) -> if keep a then acc + count counts k else acc)
        acc arms)
    0 runs

(* Per cell, whether its two arms agree bit for bit on everything a
   pooled run must not change. *)
let print_identity ~id runs =
  List.iter
    (fun (name, arms) ->
      match arms with
      | [ (_, (a, ca)); (_, (b, cb)) ] ->
        let identical =
          Int64.bits_of_float a.Raha.Analysis.degradation
          = Int64.bits_of_float b.Raha.Analysis.degradation
          && bound_bits a = bound_bits b
          && a.Raha.Analysis.nodes = b.Raha.Analysis.nodes
          && count ca "bb-rounds" = count cb "bb-rounds"
          && Failure.Scenario.equal a.Raha.Analysis.scenario b.Raha.Analysis.scenario
        in
        row "counters: %s | %s | identical=%b@." id name identical
      | _ -> invalid_arg "print_identity: two arms per cell")
    runs

(* The solver experiments' cells: the §2.1 worked example under both
   encodings and the africa-like WAN. *)
let solver_cells () =
  let f1 = Wan.Generators.fig1 () in
  let f1_paths = paths_of ~primary:2 ~backup:0 f1 [ (1, 3); (2, 3) ] in
  let f1_env =
    Traffic.Envelope.around ~slack:0.5 (Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ])
  in
  let sp5 = spec ~max_failures:1 ~levels:5 () in
  let topo, pairs = wan_small () in
  [
    ("fig1 / sd:5", sp5, f1, f1_paths, f1_env);
    ("fig1 / kkt", { sp5 with Raha.Bilevel.encoding = Raha.Bilevel.Kkt }, f1, f1_paths, f1_env);
    ("wan8 / sd:3", spec ~threshold:1e-5 (), topo, paths_of topo pairs,
     Traffic.Envelope.from_zero ~slack:0.3 (base_demand pairs));
  ]

let thresholds ctx = if ctx.quick then [ 1e-3; 1e-7 ] else [ 1e-1; 1e-3; 1e-5; 1e-7 ]
let ks ctx = if ctx.quick then [ Some 2; None ] else [ Some 1; Some 2; Some 4; None ]
