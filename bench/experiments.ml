(* One experiment per table/figure of the paper's evaluation (§8 and
   Appendix D). Each prints the series the paper plots; EXPERIMENTS.md
   records paper-vs-measured shapes. *)

open Common

(* ----------------------------------------------------------------- fig1 *)

let fig1 ctx =
  section ctx ~id:"fig1" ~paper:"the §2.1 worked example (three analyses)"
    ~config:"4-node network, 2 paths/pair, single failures, +/-50% demand envelope";
  let topo = Wan.Generators.fig1 () in
  let paths = paths_of ~primary:2 ~backup:0 topo [ (1, 3); (2, 3) ] in
  let typical = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let sp = spec ~max_failures:1 ~levels:5 () in
  let fixed = analyze ctx sp topo paths (Traffic.Envelope.fixed typical) in
  let naive =
    Raha.Baselines.worst_failures_at_demand ~options:(options ctx sp) topo paths
      (Traffic.Demand.of_list [ ((1, 3), 6.); ((2, 3), 5.) ])
  in
  let joint = analyze ctx sp topo paths (Traffic.Envelope.around ~slack:0.5 typical) in
  row "%-24s %-10s %s@." "analysis" "measured" "paper";
  row "%-24s %-10.0f %s@." "fixed demand" fixed.Raha.Analysis.degradation "7";
  row "%-24s %-10.0f %s@." "naive worst case" naive.Raha.Analysis.degradation "1";
  row "%-24s %-10.0f %s@." "raha joint" joint.Raha.Analysis.degradation "9"

(* ----------------------------------------------------------------- fig2 *)

let fig2 ctx =
  section ctx ~id:"fig2" ~paper:"max # simultaneously failing links vs probability threshold"
    ~config:"africa-like WAN and B4; greedy-optimal count (validated against enumeration)";
  let topos = [ fst (wan_large ()); Wan.Zoo.b4 () ] in
  row "%-14s" "threshold";
  List.iter (fun t -> row " %-14s" (Wan.Topology.name t)) topos;
  row "@.";
  List.iter
    (fun thr ->
      row "%-14g" thr;
      List.iter
        (fun topo ->
          let n, _ = Failure.Probability.max_simultaneous_failures topo ~threshold:thr in
          row " %-14d" n)
        topos;
      row "@.")
    [ 1e-1; 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-7 ];
  row "(paper: decreases from 15-20 at 1e-7 to ~0 at 0.1 on the production WAN)@."

(* ----------------------------------------------------------------- fig3 *)

let fig3 ctx =
  section ctx ~id:"fig3"
    ~paper:"Raha vs naive fixed-demand baselines (Max / Average) across slack"
    ~config:"africa-like WAN (8 nodes), 1 backup path, threshold 1e-5";
  let topo, pairs = wan_small () in
  let paths = paths_of ~primary:1 ~backup:1 topo pairs in
  let avg = base_demand pairs in
  let sp = spec ~threshold:1e-5 () in
  let sp_min = spec ~threshold:1e-5 ~goal:Raha.Bilevel.Min_failed_performance () in
  row "%-10s %-10s %-10s %-10s@." "slack(%)" "raha" "max" "average";
  let slacks = if ctx.quick then [ 0.; 0.8 ] else [ 0.; 0.2; 0.4; 0.6; 0.8; 1.0; 1.2; 1.4 ] in
  List.iter
    (fun slack ->
      let raha = analyze ctx sp topo paths (Traffic.Envelope.from_zero ~slack avg) in
      let mx =
        Raha.Baselines.worst_failures_at_demand ~options:(options ctx sp_min) topo paths
          (Traffic.Demand.scale (1. +. slack) avg)
      in
      let av =
        Raha.Baselines.worst_failures_at_demand ~options:(options ctx sp_min) topo paths avg
      in
      row "%-10.0f %-10s %-10s %-10s@." (100. *. slack) (deg_str raha) (deg_str mx)
        (deg_str av))
    slacks;
  row "(paper: raha dominates both baselines and grows with slack)@.";
  (* Second panel: the §2.3 subtlety — "set both networks to peak demand"
     does NOT reveal the worst degradation. Two pairs share the primary
     LAG X-T; pair 1's backup is larger than its primary, so pushing its
     demand past the primary's capacity feeds the FAILED network more
     than the healthy one and shrinks the gap. *)
  row "@.[backup-rich topology: peak demand is not the worst demand]@.";
  (* The only failure that hurts pair X->T (tiny backup) is the shared
     X-T LAG, which also moves pair S1->T onto a backup LARGER than its
     primary — so inflating S1's demand past its primary feeds the failed
     network more than the healthy one and shrinks the gap. *)
  let topo2 =
    Wan.Topology.create ~name:"backup_rich" ~num_nodes:5
      ~node_names:[| "S1"; "X"; "Y"; "Z"; "T" |]
      [
        Wan.Lag.uniform ~id:0 ~src:0 ~dst:1 ~n:1 ~capacity:10. ~fail_prob:0.01;
        Wan.Lag.uniform ~id:1 ~src:1 ~dst:4 ~n:1 ~capacity:30. ~fail_prob:0.01;
        Wan.Lag.uniform ~id:2 ~src:0 ~dst:2 ~n:1 ~capacity:40. ~fail_prob:0.01;
        Wan.Lag.uniform ~id:3 ~src:2 ~dst:4 ~n:1 ~capacity:40. ~fail_prob:0.01;
        Wan.Lag.uniform ~id:4 ~src:1 ~dst:3 ~n:1 ~capacity:2. ~fail_prob:0.01;
        Wan.Lag.uniform ~id:5 ~src:3 ~dst:4 ~n:1 ~capacity:2. ~fail_prob:0.01;
      ]
  in
  let paths2 =
    [
      {
        Netpath.Path_set.src = 0;
        dst = 4;
        primary = [ Netpath.Path.make topo2 [ 0; 1; 4 ] ];
        backup = [ Netpath.Path.make topo2 [ 0; 2; 4 ] ];
      };
      {
        Netpath.Path_set.src = 1;
        dst = 4;
        primary = [ Netpath.Path.make topo2 [ 1; 4 ] ];
        backup = [ Netpath.Path.make topo2 [ 1; 3; 4 ] ];
      };
    ]
  in
  let base2 = Traffic.Demand.of_list [ ((0, 4), 10.); ((1, 4), 20.) ] in
  let sp2 = spec ~max_failures:1 ~levels:5 () in
  let sp2_min = spec ~max_failures:1 ~goal:Raha.Bilevel.Min_failed_performance () in
  row "%-10s %-10s %-10s@." "slack(%)" "raha" "max";
  List.iter
    (fun slack ->
      let raha = analyze ctx sp2 topo2 paths2 (Traffic.Envelope.from_zero ~slack base2) in
      let mx =
        Raha.Baselines.worst_failures_at_demand ~options:(options ctx sp2_min) topo2
          paths2
          (Traffic.Demand.scale (1. +. slack) base2)
      in
      row "%-10.0f %-10.1f %-10.1f@." (100. *. slack) raha.Raha.Analysis.degradation
        mx.Raha.Analysis.degradation)
    (if ctx.quick then [ 1. ] else [ 0.; 0.5; 1.; 1.5 ]);
  row "(raha holds the interior optimum while the peak-demand baseline decays)@."

(* ------------------------------------------------------------- fig5/6 *)

let fig56 ~ce ctx =
  let id = if ce then "fig6" else "fig5" in
  section ctx ~id
    ~paper:
      (Printf.sprintf "degradation vs threshold x max-failures%s"
         (if ce then " under CE constraints" else ""))
    ~config:"africa-like WAN (8 nodes), 2+1 paths; demand: avg | 1.3x max | variable";
  let topo, pairs = wan_small () in
  let paths = paths_of topo pairs in
  let avg = base_demand pairs in
  let mx = Traffic.Demand.scale 1.3 avg in
  let modes =
    [
      ("fixed avg", Traffic.Envelope.fixed avg);
      ("fixed max", Traffic.Envelope.fixed mx);
      ("variable", Traffic.Envelope.from_zero ~slack:0.3 avg);
    ]
  in
  (* the whole modes x thresholds x k grid is one scenario sweep: every
     cell is an independent bi-level solve, fanned out over ctx.domains *)
  let cells =
    Array.of_list
      (List.concat_map
         (fun (_, envelope) ->
           List.concat_map
             (fun thr -> List.map (fun k -> (envelope, thr, k)) (ks ctx))
             (thresholds ctx))
         modes)
  in
  let results =
    par_cells ctx
      (fun (envelope, thr, k) ->
        let sp = spec ~threshold:thr ?max_failures:k ~ce () in
        deg_str (analyze ctx sp topo paths envelope))
      cells
  in
  let nk = List.length (ks ctx) and nthr = List.length (thresholds ctx) in
  List.iteri
    (fun mi (mode, _) ->
      row "@.[%s demand]@." mode;
      row "%-12s" "threshold";
      List.iter (fun k -> row " k=%-8s" (k_str k)) (ks ctx);
      row "@.";
      List.iteri
        (fun ti thr ->
          row "%-12g" thr;
          List.iteri
            (fun ki _ -> row " %-10s" results.((((mi * nthr) + ti) * nk) + ki))
            (ks ctx);
          row "@.")
        (thresholds ctx))
    modes;
  row "(paper: k<=2 underestimates by 2-20x at low thresholds)@."

let fig5 = fig56 ~ce:false
let fig6 = fig56 ~ce:true

(* ----------------------------------------------------------------- fig7 *)

let fig7 ctx =
  section ctx ~id:"fig7" ~paper:"degradation grows with the demand slack"
    ~config:"africa-like WAN (8 nodes), 2+1 paths, threshold 1e-5";
  let topo, pairs = wan_small () in
  let paths = paths_of topo pairs in
  let avg = base_demand pairs in
  let slacks = if ctx.quick then [ 0.; 2. ] else [ 0.; 0.5; 1.; 2.; 4. ] in
  let cells =
    Array.of_list
      (List.concat_map (fun slack -> List.map (fun k -> (slack, k)) (ks ctx)) slacks)
  in
  let results =
    par_cells ctx
      (fun (slack, k) ->
        let sp = spec ~threshold:1e-5 ?max_failures:k () in
        deg_str (analyze ctx sp topo paths (Traffic.Envelope.from_zero ~slack avg)))
      cells
  in
  let nk = List.length (ks ctx) in
  row "%-10s" "slack(%)";
  List.iter (fun k -> row " k=%-8s" (k_str k)) (ks ctx);
  row "@.";
  List.iteri
    (fun si slack ->
      row "%-10.0f" (100. *. slack);
      List.iteri (fun ki _ -> row " %-10s" results.((si * nk) + ki)) (ks ctx);
      row "@.")
    slacks;
  row "(paper: monotone growth, larger for larger k)@."

(* ----------------------------------------------------------------- fig8 *)

let fig8 ctx =
  section ctx ~id:"fig8" ~paper:"Uninett2010: clustering when the search space is large"
    ~config:
      "uninett2010 stand-in (20-node reduction by default), 4+1 paths, demands \
       capped at half the avg LAG capacity";
  let ctx = { ctx with budget = 2. *. ctx.budget } in
  let topo = if ctx.full then Wan.Zoo.uninett2010 () else Wan.Zoo.uninett2010_reduced () in
  let n = Wan.Topology.num_nodes topo in
  let pairs = [ (0, n / 2); (1, (n / 2) + 1); (2, (n / 2) + 2); (3, (n / 2) + 3) ] in
  let paths = paths_of ~primary:4 ~backup:1 topo pairs in
  let cap = Wan.Topology.avg_lag_capacity topo /. 2. in
  let envelope = Traffic.Envelope.unbounded ~cap pairs in
  row "%-12s %-14s %-14s@." "threshold" "no clusters" "2 clusters";
  List.iter
    (fun thr ->
      let sp = spec ~threshold:thr () in
      let plain = analyze ctx sp topo paths envelope in
      let clustered =
        Raha.Cluster.analyze ~options:(options ctx sp) ~clusters:2 topo paths envelope
      in
      row "%-12g %-14s %-14s %s@." thr (deg_str plain)
        (deg_str clustered.Raha.Cluster.report) (blocks_str clustered))
    (if ctx.quick then [ 1e-3 ] else [ 1e-1; 1e-3; 1e-5 ]);
  row "(paper: without clustering the solver stalls below threshold 1e-4)@."

(* ----------------------------------------------------------------- fig9 *)

let fig9 ctx =
  section ctx ~id:"fig9" ~paper:"impact of the number of clusters on quality and runtime"
    ~config:"africa-like WAN (10 nodes), fixed total solver budget split across solves";
  let topo, pairs = wan_large () in
  let paths = paths_of topo pairs in
  (* a hard instance: wide demand envelope and a low probability threshold *)
  let envelope = Traffic.Envelope.from_zero ~slack:1.0 (base_demand pairs) in
  let total_budget = 4. *. ctx.budget in
  row "%-10s %-14s %-12s@." "clusters" "degradation" "runtime(s)";
  List.iter
    (fun clusters ->
      let sp = spec ~threshold:1e-7 ~levels:5 () in
      let opt = { (options ctx sp) with Raha.Analysis.time_limit = total_budget } in
      let t0 = Unix.gettimeofday () in
      let r, blocks =
        if clusters = 1 then (Raha.Analysis.analyze ~options:opt topo paths envelope, "")
        else
          let c = Raha.Cluster.analyze ~options:opt ~clusters topo paths envelope in
          (c.Raha.Cluster.report, " " ^ blocks_str c)
      in
      row "%-10d %-14s %-12.1f%s@." clusters (deg_str r) (Unix.gettimeofday () -. t0) blocks)
    (if ctx.quick then [ 1; 2 ] else [ 1; 2; 4; 8 ]);
  row "(paper: clustering trades ~15%% degradation for ~69%% less runtime)@."

(* ---------------------------------------------------------------- fig10 *)

let fig10 ctx =
  section ctx ~id:"fig10" ~paper:"runtime vs #primary paths / threshold / max failures"
    ~config:"africa-like WAN (10 nodes), variable demand; includes path computation";
  let topo, pairs = wan_large () in
  let envelope = Traffic.Envelope.from_zero ~slack:0.3 (base_demand pairs) in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  row "%-22s %-12s %-12s@." "sweep" "value" "runtime(s)";
  List.iter
    (fun primary ->
      let _, dt =
        timed (fun () ->
            let paths = paths_of ~primary ~backup:1 topo pairs in
            analyze ctx (spec ~threshold:1e-5 ()) topo paths envelope)
      in
      row "%-22s %-12d %-12.2f@." "primary paths" primary dt)
    (if ctx.quick then [ 2 ] else [ 1; 2; 3; 4 ]);
  let paths = paths_of topo pairs in
  List.iter
    (fun thr ->
      let _, dt = timed (fun () -> analyze ctx (spec ~threshold:thr ()) topo paths envelope) in
      row "%-22s %-12g %-12.2f@." "threshold" thr dt)
    (thresholds ctx);
  List.iter
    (fun k ->
      let _, dt =
        timed (fun () -> analyze ctx (spec ?max_failures:k ()) topo paths envelope)
      in
      row "%-22s %-12s %-12.2f@." "max failures" (k_str k) dt)
    (ks ctx);
  row "(paper: runtime grows with #paths and with stricter probability thresholds;@.";
  row " removing the constraints entirely is fastest)@."

(* ------------------------------------------------------------ fig11/17 *)

let augment_sweep ~id ~can_fail ctx =
  section ctx ~id
    ~paper:
      (Printf.sprintf "LAG augmentation until no probable degradation (%s capacity)"
         (if can_fail then "failable new" else "non-failable new"))
    ~config:"africa-like WAN (8 nodes), threshold 1e-4, 2+1 paths";
  let topo, pairs = wan_small () in
  let paths = paths_of topo pairs in
  let avg = base_demand pairs in
  row "%-10s %-8s %-16s %-12s %-12s@." "slack(%)" "steps" "avg reduction(%)" "links added"
    "converged";
  List.iter
    (fun slack ->
      let sp = spec ~threshold:1e-4 () in
      let r =
        Raha.Augment.augment_lags ~options:(options ctx sp)
          ~new_capacity_can_fail:can_fail ~tolerance:0.01 ~max_steps:8 topo paths
          (Traffic.Envelope.from_zero ~slack avg)
      in
      let n_steps = List.length r.Raha.Augment.steps in
      let reduction =
        match r.Raha.Augment.steps with
        | [] -> 100.
        | first :: _ ->
          let d0 = first.Raha.Augment.report.Raha.Analysis.degradation in
          let df = Float.max 0. r.Raha.Augment.final.Raha.Analysis.degradation in
          if d0 <= 0. then 100. else 100. *. (d0 -. df) /. d0
      in
      row "%-10.0f %-8d %-16.0f %-12d %-12b@." (100. *. slack) n_steps reduction
        r.Raha.Augment.total_links_added r.Raha.Augment.converged)
    (if ctx.quick then [ 0.; 1. ] else [ 0.; 0.5; 1.; 2. ]);
  row "(paper: converges in <= 6 steps; links added grow with slack)@."

let fig11 = augment_sweep ~id:"fig11" ~can_fail:true
let fig17 = augment_sweep ~id:"fig17" ~can_fail:false

(* ------------------------------------------------------- fig12/13/15 *)

let path_sweep ~id ~fixed_max ~scheme ctx =
  let demand_desc = if fixed_max then "fixed 1.3x max demand" else "variable demand" in
  section ctx ~id
    ~paper:
      (match id with
      | "fig13" -> "weighted path selection: degradation vs #primary paths"
      | "fig15" -> "Fig. 12 with fixed maximum demands"
      | _ -> "degradation vs #primary (plain + CE) and #backup paths")
    ~config:(Printf.sprintf "africa-like WAN (8 nodes), %s, threshold 1e-5" demand_desc);
  let topo, pairs = wan_small () in
  let avg = base_demand pairs in
  let envelope =
    if fixed_max then Traffic.Envelope.fixed (Traffic.Demand.scale 1.3 avg)
    else Traffic.Envelope.from_zero ~slack:0.3 avg
  in
  let sweep name mk_paths values ~ce =
    row "@.[%s%s]@." name (if ce then ", CE" else "");
    row "%-10s" name;
    List.iter (fun k -> row " k=%-8s" (k_str k)) (ks ctx);
    row "@.";
    List.iter
      (fun v ->
        row "%-10d" v;
        let paths = mk_paths v in
        List.iter
          (fun k ->
            let sp = spec ~threshold:1e-5 ?max_failures:k ~ce () in
            let r = analyze ctx sp topo paths envelope in
            row " %-10s" (deg_str r))
          (ks ctx);
        row "@.")
      values
  in
  let primaries = if ctx.quick then [ 2 ] else [ 1; 2; 3; 4 ] in
  let backups = if ctx.quick then [ 1 ] else [ 0; 1; 2; 3 ] in
  sweep "primary" (fun p -> paths_of ?scheme ~primary:p ~backup:1 topo pairs) primaries
    ~ce:false;
  if id <> "fig13" then begin
    sweep "primary" (fun p -> paths_of ?scheme ~primary:p ~backup:1 topo pairs) primaries
      ~ce:true;
    sweep "backup" (fun b -> paths_of ?scheme ~primary:2 ~backup:b topo pairs) backups
      ~ce:false
  end;
  row
    "(paper: with plain k-shortest paths more paths can RAISE the degradation \
     (fate sharing);@. weighted selection (fig13) restores the expected decrease; \
     fixed demands (fig15) flatten it)@."

let fig12 = path_sweep ~id:"fig12" ~fixed_max:false ~scheme:None
let fig13 =
  path_sweep ~id:"fig13" ~fixed_max:false ~scheme:(Some Netpath.Path_set.Usage_penalized)
let fig15 = path_sweep ~id:"fig15" ~fixed_max:true ~scheme:None

(* ---------------------------------------------------------------- fig14 *)

let fig14 ctx =
  section ctx ~id:"fig14" ~paper:"runtime vs #backup paths (incl. path computation)"
    ~config:"africa-like WAN (10 nodes), variable demand, threshold 1e-5";
  let topo, pairs = wan_large () in
  let envelope = Traffic.Envelope.from_zero ~slack:0.3 (base_demand pairs) in
  row "%-10s %-12s %-14s@." "backups" "runtime(s)" "degradation";
  List.iter
    (fun backup ->
      let t0 = Unix.gettimeofday () in
      let paths = paths_of ~primary:2 ~backup topo pairs in
      let r = analyze ctx (spec ~threshold:1e-5 ()) topo paths envelope in
      row "%-10d %-12.2f %-14s@." backup (Unix.gettimeofday () -. t0) (deg_str r))
    (if ctx.quick then [ 1 ] else [ 0; 1; 2; 3 ]);
  row "(paper: runtime grows with backups, mostly due to path computation)@."

(* ---------------------------------------------------------------- fig16 *)

let fig16 ctx =
  section ctx ~id:"fig16" ~paper:"timeouts affect runtime, not solution quality"
    ~config:"africa-like WAN (10 nodes, a budget-bound instance), variable demand";
  let topo, pairs = wan_large () in
  let paths = paths_of topo pairs in
  let envelope = Traffic.Envelope.from_zero ~slack:0.3 (base_demand pairs) in
  row "%-12s %-12s %-14s %-12s@." "timeout(s)" "runtime(s)" "degradation" "bound";
  List.iter
    (fun budget ->
      let sp = spec ~threshold:1e-5 () in
      let opt = { (options ctx sp) with Raha.Analysis.time_limit = budget } in
      let t0 = Unix.gettimeofday () in
      let r = Raha.Analysis.analyze ~options:opt topo paths envelope in
      row "%-12.0f %-12.1f %-14s %-12.1f@." budget
        (Unix.gettimeofday () -. t0)
        (deg_str r) (r.Raha.Analysis.bound /. Wan.Topology.avg_lag_capacity topo))
    (if ctx.quick then [ 2.; 10. ] else [ 2.; 5.; 15.; 40. ]);
  row "(paper: the incumbent degradation is stable across timeouts)@."

(* ---------------------------------------------------------------- fig18 *)

let fig18 ctx =
  section ctx ~id:"fig18" ~paper:"adding new LAGs (edges) until failures cannot degrade"
    ~config:"africa-like WAN (8 nodes), threshold 1e-4, candidate edges between spokes";
  let topo, pairs = wan_small () in
  let avg = base_demand pairs in
  let n = Wan.Topology.num_nodes topo in
  (* candidates: node pairs with no existing LAG *)
  let candidates =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if a < b && Wan.Topology.lag_between topo a b = None then Some (a, b) else None)
          (List.init n Fun.id))
      (List.init n Fun.id)
  in
  let repath t = paths_of t pairs in
  row "%-10s %-8s %-14s %-12s@." "slack(%)" "steps" "links added" "converged";
  List.iter
    (fun slack ->
      let sp = spec ~threshold:1e-4 () in
      let r =
        Raha.Augment.augment_new_lags ~options:(options ctx sp) ~candidates ~repath
          ~tolerance:0.01 ~max_steps:6 topo (Traffic.Envelope.from_zero ~slack avg)
      in
      row "%-10.0f %-8d %-14d %-12b@." (100. *. slack)
        (List.length r.Raha.Augment.steps)
        r.Raha.Augment.total_links_added r.Raha.Augment.converged)
    (if ctx.quick then [ 0. ] else [ 0.; 1.; 2. ]);
  row "(paper: a small set of new edges removes all probable degradation)@."

(* ----------------------------------------------------------------- tab3 *)

let tab3 ctx =
  section ctx ~id:"tab3" ~paper:"B4: degradation per (threshold, #backup, max failures)"
    ~config:"B4 (12 nodes, 19 LAGs), 4 primary paths, demands in [0, half avg capacity]";
  let topo = Wan.Zoo.b4 () in
  let pairs = [ (0, 11); (1, 10); (2, 9); (3, 8) ] in
  let cap = Wan.Topology.avg_lag_capacity topo /. 2. in
  let envelope = Traffic.Envelope.unbounded ~cap pairs in
  row "%-12s %-10s %-8s %-14s@." "threshold" "backups" "k" "degradation";
  let grid =
    if ctx.quick then [ (1e-2, 1); (1e-4, 1) ]
    else [ (1e-2, 1); (1e-2, 2); (1e-3, 1); (1e-4, 1); (1e-5, 1) ]
  in
  List.iter
    (fun (thr, backup) ->
      let paths = paths_of ~primary:4 ~backup topo pairs in
      List.iter
        (fun k ->
          let sp = spec ~threshold:thr ?max_failures:k () in
          let r = analyze ctx sp topo paths envelope in
          row "%-12g %-10d %-8s %-14s@." thr backup (k_str k) (deg_str r))
        (ks ctx))
    grid;
  row "(paper: degradation = min(#backup+1, allowed failures) LAG capacities, \
       growing with both)@."

(* ----------------------------------------------------------------- tab4 *)

let tab4 ctx =
  section ctx ~id:"tab4" ~paper:"Cogentco: degradation with 8 clusters"
    ~config:
      "cogentco stand-in (24-node reduction, 4 clusters by default; 197 nodes, 8 \
       clusters with --full), 4+1 paths, demands in [0, half avg capacity]";
  (* clustering splits the budget across ~17 block solves, so this
     experiment gets a larger share *)
  let ctx = { ctx with budget = 3. *. ctx.budget } in
  let topo = if ctx.full then Wan.Zoo.cogentco () else Wan.Zoo.cogentco_reduced () in
  let n = Wan.Topology.num_nodes topo in
  let clusters = if ctx.full then 8 else 4 in
  let pairs =
    [ (0, n / 2); (1, (n / 2) + 2); (3, (n / 2) + 4); (5, (n / 2) + 6);
      (2, (n / 2) + 1); (4, (n / 2) + 3) ]
  in
  let paths = paths_of ~primary:4 ~backup:1 topo pairs in
  let cap = Wan.Topology.avg_lag_capacity topo /. 2. in
  let envelope = Traffic.Envelope.unbounded ~cap pairs in
  row "%-12s %-8s %-14s@." "threshold" "k" "degradation";
  List.iter
    (fun (thr, k) ->
      let sp = spec ~threshold:thr ?max_failures:k () in
      let r =
        Raha.Cluster.analyze ~options:(options ctx sp) ~clusters topo paths envelope
      in
      row "%-12g %-8s %-14s %s@." thr (k_str k) (deg_str r.Raha.Cluster.report) (blocks_str r))
    (if ctx.quick then [ (1e-4, Some 2); (1e-4, None) ]
     else
       [ (1e-4, Some 1); (1e-4, Some 2); (1e-4, Some 4); (1e-4, None); (1e-6, None) ]);
  row "(paper: 1 / 2 / 4 / 6 / 10.5 for these rows)@."

(* ------------------------------------------------------------------ mlu *)

let mlu ctx =
  section ctx ~id:"mlu" ~paper:"§8.5: worst-case MLU degradation vs slack"
    ~config:"africa-like WAN (8 nodes), gravity demands, CE enforced, threshold 1e-5";
  let topo, pairs = wan_small () in
  let paths = paths_of topo pairs in
  let demand = Traffic.Gravity.generate ~pairs ~scale:30. ~seed:4 topo () in
  row "%-10s %-14s@." "slack(%)" "MLU degradation";
  List.iter
    (fun slack ->
      let sp =
        spec ~objective:(Te.Formulation.Mlu { u_max = 10. }) ~threshold:1e-5 ~ce:true ()
      in
      let envelope =
        if slack = 0. then Traffic.Envelope.fixed demand
        else Traffic.Envelope.from_zero ~slack demand
      in
      let r = analyze ctx sp topo paths envelope in
      let s =
        match r.Raha.Analysis.status with
        | Milp.Solver.Optimal -> Printf.sprintf "%.3f" r.Raha.Analysis.degradation
        | Milp.Solver.Feasible -> Printf.sprintf "%.3f*" r.Raha.Analysis.degradation
        | _ -> "-"
      in
      row "%-10.0f %-14s@." (100. *. slack) s)
    (if ctx.quick then [ 0.; 0.4 ] else [ 0.; 0.1; 0.2; 0.4 ]);
  row "(paper: 1.06 / 1.32 / 1.26 at 0-20%% slack, jumping to 3.12 at 40%%)@."

(* ------------------------------------------------------------- ablation *)

let ablation ctx =
  section ctx ~id:"ablation"
    ~paper:"design choice: strong-duality vs KKT encoding (DESIGN.md)"
    ~config:"africa-like WAN (8 nodes), threshold 1e-5, fixed and variable demand";
  let topo, pairs = wan_small () in
  let paths = paths_of topo pairs in
  let avg = base_demand pairs in
  let sp = spec ~threshold:1e-5 () in
  let encoding name encoding =
    arm name (fun o -> { o with Raha.Analysis.spec = { o.Raha.Analysis.spec with encoding } })
  in
  ignore
    (ablate ctx ~id:"ablation" ~fields:[ "deg"; "nodes"; "pivots"; "cert" ]
       [
         ("fixed", sp, topo, paths, Traffic.Envelope.fixed avg);
         ("variable", sp, topo, paths, Traffic.Envelope.from_zero ~slack:0.3 avg);
       ]
       [
         encoding "sd:3" (Raha.Bilevel.Strong_duality { levels = 3 });
         encoding "kkt" Raha.Bilevel.Kkt;
         encoding "sd:5" (Raha.Bilevel.Strong_duality { levels = 5 });
       ]);
  row
    "(strong duality explores far fewer nodes; KKT is exact for continuous demands      but searches more)@."

(* ------------------------------------------------------------- presolve *)

(* Presolve over the bilevel encodings: the Milp.Presolve reductions of
   each solver cell (rows, columns and integer columns before->after,
   big-Ms tightened, columns fixed, passes, rows propagated).
   Reductions are deterministic, so each row also prints a counters:
   line; the solve cost of the presolved analysis is the solver
   experiment's default arm. The measured rows are recorded in
   BENCH_presolve.json. *)
let presolve_bench ctx =
  section ctx ~id:"presolve"
    ~paper:"MILP presolve / big-M tightening (DESIGN.md)"
    ~config:"fig1 worked example (sd:5, kkt) + africa-like WAN (8 nodes, sd:3)";
  let fields = [ "rows"; "cols"; "int"; "bigm"; "fixed"; "passes"; "ops" ] in
  print_header fields;
  List.iter
    (fun (name, sp, topo, paths, env) ->
      let m = (Raha.Bilevel.build sp topo paths env).Raha.Bilevel.model in
      match scoped (fun () -> Milp.Presolve.presolve m) with
      | Milp.Presolve.Reduced { model = rm; stats; _ }, counts, wall ->
        let shrink f = Printf.sprintf "%d->%d" (f m) (f rm) in
        print_run ~id:"presolve" ~cell:name ~arm:"reduce" ~fields ~wall
          [
            ("rows", shrink Milp.Model.num_cons); ("cols", shrink Milp.Model.num_vars);
            ("int", shrink Milp.Model.num_int_vars);
            ("bigm", string_of_int stats.Milp.Presolve.big_ms_tightened);
            ("fixed", string_of_int stats.Milp.Presolve.cols_fixed);
            ("passes", string_of_int stats.Milp.Presolve.passes);
            ("ops", string_of_int (count counts "presolve-ops"));
          ]
      | Milp.Presolve.Infeasible _, _, _ -> row "%-14s infeasible@." name)
    (solver_cells ())

(* --------------------------------------------------------------- solver *)

let no_cuts o = { o with Raha.Analysis.cuts = Milp.Cuts.disabled }

(* Solver-layer ablation: the solver cells under the defaults (revised
   engine, cut pool, reliability branching, diving) and three arms that
   each turn a layer back: no-cuts; dense, no-cuts on the legacy dense
   tableau (a pure engine ablation against no-cuts); frac,
   most-fractional branching. Every arm solves the same MILPs to
   optimality, so degradations must agree. warm is dual-simplex
   hits/attempts; gen/app/aud count cut candidates, admitted cuts and
   incumbent-audit failures; sb/pcu strong-branching probes and
   pseudocost updates; hs/hr dive incumbents accepted/rejected by the
   unified-tolerance re-check; refuted plunge hints skipped after a
   warm dual refutation. aud and hr must be 0. Measured rows are
   recorded in BENCH_revised.json, BENCH_cuts.json and
   BENCH_branching.json. *)
let solver_bench ctx =
  section ctx ~id:"solver"
    ~paper:"solver layers: revised simplex, cut pool, reliability branching (DESIGN.md §9, §11, §15)"
    ~config:"fig1 worked example (sd:5, kkt) + africa-like WAN (8 nodes, sd:3)";
  let runs =
    ablate ctx ~id:"solver"
      ~fields:
        [ "deg"; "nodes"; "pivots"; "dual"; "fact"; "eta"; "warm"; "gen"; "app"; "aud";
          "sb"; "pcu"; "hs"; "hr"; "refuted"; "certify"; "cert" ]
      (solver_cells ())
      [
        arm "default" Fun.id;
        arm "no-cuts" no_cuts;
        arm "dense" (fun o -> { (no_cuts o) with Raha.Analysis.dense_simplex = true });
        arm "frac" (fun o -> { o with Raha.Analysis.branching = Milp.Branch_bound.Fractional });
      ]
  in
  let default = total ~keep:(( = ) "default") runs in
  row "counters: solver | total | sb=%d pcu=%d hs=%d hr=%d engaged=%b@."
    (total runs "sb-probes") (total runs "pseudocost-updates")
    (total runs "heuristic-solutions") (total runs "heuristic-rejections")
    (default "sb-probes" > 0 && default "pseudocost-updates" > 0);
  row
    "(same degradations in every arm; fewer nodes under default than no-cuts and      frac; aud and hr must be 0)@."

(* ---------------------------------------------------------- monte carlo *)

let montecarlo ctx =
  section ctx ~id:"montecarlo"
    ~paper:"§1: why the production Monte Carlo simulator missed the incident"
    ~config:"africa-like WAN (8 nodes), peak demand, 20k sampled scenarios vs Raha";
  let topo, pairs = wan_small () in
  let paths = paths_of topo pairs in
  let peak = Traffic.Demand.scale 1.3 (base_demand pairs) in
  let samples = if ctx.quick then 2000 else 20_000 in
  let avg_cap = Wan.Topology.avg_lag_capacity topo in
  let degs, scens = Te.Monte_carlo.sample_degradations ~seed:1 ~samples topo paths peak in
  (* brute-force enumeration to k=2: the oracle the sampled tail is
     compared against *)
  let oracle = Raha.Baselines.enumerate_failures ~k:2 topo paths peak in
  let s = Te.Monte_carlo.summarize degs scens in
  row "monte carlo (%d samples): mean %.3f p99 %.3f max %.3f (normalized)@."
    s.Te.Monte_carlo.samples
    (s.Te.Monte_carlo.mean /. avg_cap)
    (s.Te.Monte_carlo.p99 /. avg_cap)
    (s.Te.Monte_carlo.max_seen /. avg_cap);
  row "enumeration to k=2 (%d scenarios, %.1fs): worst %.3f (normalized)@."
    oracle.Raha.Baselines.scenarios_evaluated oracle.Raha.Baselines.elapsed
    (oracle.Raha.Baselines.worst /. avg_cap);
  List.iter
    (fun thr ->
      let sp = spec ~threshold:thr () in
      let r = analyze ctx sp topo paths (Traffic.Envelope.fixed peak) in
      row "raha worst case (T=%g): %s, scenario probability %.2g@." thr (deg_str r)
        r.Raha.Analysis.scenario_prob)
    [ 1e-4; 1e-6 ];
  row
    "(the optimizer surfaces probable scenarios far beyond the sampled p99 — the      incident §2 describes)@."

(* -------------------------------------------------------------------- batch *)

(* Batched scenario engine (DESIGN.md §12): Monte Carlo and
   k-enumeration sweeps solved through one shared prepared structure +
   rhs and bound overlays + warm dual solves from the healthy basis. Every sampled
   scenario and every enumeration worst case is re-routed by the
   independent Te.Simulate.degradation oracle (its own formulation and
   cold solve, outside the counter scope); the "agree(oracle)=" line
   asserts they match within 1e-6 relative. The sweeps run on one
   domain so the scope counters see every scenario; CI gates on bwarm
   (batched warm hits) being overlays - 1 (only the healthy overlay of
   the prepare solves cold), cert=ok (zero failures of the audit each
   Batch.solve runs on its own answer),
   agree(oracle)=true and the mc cell solving fewer overlays than it has
   scenarios (a sweep solves each distinct overlay once); piv= records
   the cell's simplex pivots and rows= the rows of the LP the engine
   solves over those of the whole LP it audits against. The "mc
   cogentco" cell samples Cogentco at the sweep benchmark's shape (24
   pairs at half an average LAG): about half its capacity rows are
   left out of the solve, and its samples take down LAGs whose paths
   carry flow, so its overlays close and open paths that matter; CI
   requires rows solved < full on it. Measured scenarios/sec rows are
   recorded in BENCH_batch.json. *)
let batch_bench ctx =
  section ctx ~id:"batch"
    ~paper:"batched scenario engine: one symbolic factorization, warm overlay solves (DESIGN.md §12)"
    ~config:
      "africa-like WAN (8 nodes) and Cogentco (24 pairs at half an average LAG), Monte Carlo \
       + k-enumeration sweeps vs the Simulate oracle";
  let topo, pairs = wan_small () in
  let paths = paths_of topo pairs in
  let peak = Traffic.Demand.scale 1.3 (base_demand pairs) in
  let mc_samples = if ctx.quick then 512 else 2048 in
  let fields =
    [ "scen"; "rows"; "warm"; "bwarm"; "overlays"; "piv"; "prepares"; "fact"; "certify"; "cert" ]
  in
  print_header fields;
  let run_cell name (topo, paths, demand) scen solve =
    let rows =
      match Te.Simulate.prepare topo paths demand with
      | Some eng ->
        let solved, full = Te.Simulate.engine_rows eng in
        Printf.sprintf "%d/%d" solved full
      | None -> "-"
    in
    (* The first call's scope gives the counters; the call repeats until
       50 ms have passed, and the median per-call wall gives the rate
       (one call of an 8-node cell takes 0.1-2 ms, too short to time
       alone). *)
    let checked, counts, first = scoped solve in
    let walls = ref [ first ] and spent = ref first in
    while !spent < 0.05 do
      let t0 = Unix.gettimeofday () in
      ignore (solve ());
      let w = Unix.gettimeofday () -. t0 in
      walls := w :: !walls;
      spent := !spent +. w
    done;
    let calls = List.length !walls in
    let wall = List.nth (List.sort Float.compare !walls) (calls / 2) in
    print_run ~id:"batch" ~cell:name ~arm:"on" ~fields ~wall
      (("scen", string_of_int scen)
      :: ("rows", rows)
      :: ("piv", string_of_int (count counts "simplex"))
      :: ("cert", if count counts "certify-failures" = 0 then "ok" else "FAIL")
      :: count_fields counts);
    let agrees (deg, scenario) =
      match Te.Simulate.degradation topo paths demand scenario with
      | Some d -> Float.abs (d -. deg) <= 1e-6 *. (1. +. Float.abs d)
      | None -> false
    in
    let agree = Array.for_all agrees checked in
    row "%s: %.3f ms per call (median of %d), %.0f scen/s, oracle %s@." name (wall *. 1e3)
      calls
      (float_of_int scen /. Float.max 1e-9 wall)
      (if agree then "agrees" else "MISMATCH");
    row "counters: batch | %s | agree(oracle)=%b@." name agree
  in
  let mc name ((topo, paths, demand) as net) samples =
    run_cell name net samples (fun () ->
        let degs, scens =
          Te.Monte_carlo.sample_degradations ~seed:1 ~samples topo paths demand
        in
        Array.combine degs scens)
  in
  mc "mc" (topo, paths, peak) mc_samples;
  List.iter
    (fun k ->
      run_cell
        (Printf.sprintf "enum k=%d" k)
        (topo, paths, peak)
        (List.length (Failure.Enumerate.up_to_k topo ~k))
        (fun () ->
          let r = Raha.Baselines.enumerate_failures ~k topo paths peak in
          [| (r.Raha.Baselines.worst, r.Raha.Baselines.worst_scenario) |]))
    (if ctx.quick then [ 1 ] else [ 1; 2 ]);
  let cogentco =
    let topo = Wan.Zoo.cogentco () in
    let nn = Wan.Topology.num_nodes topo in
    let rng = Random.State.make [| 2025; nn |] in
    let rec draw acc =
      if List.length acc = 24 then List.rev acc
      else
        let a = Random.State.int rng nn and b = Random.State.int rng nn in
        if a = b || List.mem (a, b) acc || List.mem (b, a) acc then draw acc
        else draw ((a, b) :: acc)
    in
    let pairs = draw [] in
    ( topo,
      paths_of topo pairs,
      base_demand ~volume:(Wan.Topology.avg_lag_capacity topo /. 2.) pairs )
  in
  mc "mc cogentco" cogentco (if ctx.quick then 128 else 512);
  row
    "(bwarm counts warm dual overlay solves, certify the audits inside Batch.solve —      failures must be 0)@."

(* ---------------------------------------------------------------- service *)

(* Always-on degradation service (DESIGN.md §13): a recorded telemetry
   stream with interleaved worst-case / "now" / status queries, replayed
   through the Service.Core ingestion + invalidation + incremental
   re-solve loop (service arm) versus an arm that reconstructs state and
   solves cold for every query (cold arm). The service arm runs twice,
   on two fresh Cores in this process, and the two stripped answer
   sequences must be bit-identical ([identical(replay)]): a replay is
   deterministic. The per-worst-query solve-relevant fields
   must also agree between the service and cold arms — an answer is
   only ever reused when a full re-solve would have said the same
   thing. The
   [counters:] lines carry no wall clock (CI double-runs and diffs
   them); measured queries/sec rows go to BENCH_service.json. *)
let service_bench ctx =
  section ctx ~id:"service"
    ~paper:"always-on service: streaming ingestion, invalidation, incremental re-solve (DESIGN.md §13)"
    ~config:"africa-like WAN (8 nodes), telemetry replay with interleaved queries, service vs cold-per-query";
  let topo, pairs = wan_small () in
  let paths = paths_of topo pairs in
  let envelope = Traffic.Envelope.around ~slack:0.3 (base_demand pairs) in
  let sp = spec ~max_failures:1 () in
  let cfg =
    {
      Service.Core.paths;
      envelope;
      options = options ctx sp;
      drift_tol = 0.30;
      alert_tolerance = 0.1;
    }
  in
  (* recorded stream: exponential outage traces on the first 6 lags,
     merged by time, with queries woven in — a "now" check after every
     event, a hypothetical overlay every 2nd, a worst-case refresh every
     4th *)
  let module Ev = Service.Event in
  let events =
    let per_link =
      List.concat
        (List.init (min 6 (Wan.Topology.num_lags topo)) (fun e ->
             List.concat_map
               (fun (o : Failure.Renewal.event) ->
                 [
                   (o.Failure.Renewal.down_at,
                    Ev.Link_down { lag = e; link = 0; at = o.Failure.Renewal.down_at });
                   (o.Failure.Renewal.up_at,
                    Ev.Link_up { lag = e; link = 0; at = o.Failure.Renewal.up_at });
                 ])
               (Failure.Trace.exponential ~seed:(31 + e) ~mean_uptime:60.
                  ~mean_downtime:3. ~horizon:(if ctx.quick then 90. else 150.) ())))
    in
    List.map snd (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) per_link)
  in
  let worst = Ev.Query (Ev.Worst { budget = None; max_nodes = None }) in
  let script =
    let n = ref 0 in
    List.concat_map
      (fun e ->
        incr n;
        [ Ev.Event e; Ev.Query (Ev.Now { down = None }) ]
        @ (if !n mod 2 = 0 then
             [ Ev.Query (Ev.Now { down = Some [ (!n mod 6, 0) ] }) ]
           else [])
        @ if !n mod 2 = 1 then [ worst ] else [])
      events
    @ [ worst; Ev.Query Ev.Status ]
  in
  let n_events = List.length events in
  let n_queries = List.length script - n_events in
  let n_worst =
    List.length (List.filter (function Ev.Query (Ev.Worst _) -> true | _ -> false) script)
  in
  let render j = Service.Json.to_string (Service.Core.strip_volatile j) in
  let is_query = function Ev.Query _ -> true | _ -> false in
  let cert_ok rendered =
    match Service.Json.of_string rendered with
    | Error _ -> false
    | Ok j -> (
      match Service.Json.to_str (Service.Json.member "cert" j) with
      | Some c -> c = "ok"
      | None -> true (* status / event acks carry no cert *))
  in
  (* solve-relevant projection for the service-vs-cold agreement check *)
  let stable rendered =
    match Service.Json.of_string rendered with
    | Error m -> "unparseable: " ^ m
    | Ok j ->
      Service.Json.to_string
        (Service.Json.Obj
           (List.map
              (fun k -> (k, Service.Json.member k j))
              [ "status"; "degradation"; "normalized"; "bound"; "scenario"; "num_failed_links" ]))
  in
  let service_arm () =
    let core = Service.Core.create cfg topo in
    let t0 = Unix.gettimeofday () in
    let out = List.map (fun r -> (r, render (Service.Core.handle core r))) script in
    let dt = Unix.gettimeofday () -. t0 in
    (List.filter_map (fun (r, o) -> if is_query r then Some o else None) out,
     dt, Service.Core.tally core)
  in
  let cold_arm () =
    (* fresh core per query: replay the event prefix, then solve cold *)
    let t0 = Unix.gettimeofday () in
    let prefix = ref [] in
    let out =
      List.filter_map
        (fun r ->
          match r with
          | Ev.Event _ ->
            prefix := r :: !prefix;
            None
          | _ ->
            let core = Service.Core.create cfg topo in
            List.iter
              (fun e -> ignore (Service.Core.handle core e))
              (List.rev !prefix);
            Some (render (Service.Core.handle core r)))
        script
    in
    (out, Unix.gettimeofday () -. t0)
  in
  let (out1, dt1, (n_cached, n_warm, n_cold)), counts1, _ = scoped service_arm in
  let out2, _, _ = service_arm () in
  let outc, dtc = cold_arm () in
  let identical = out1 = out2 in
  let worsts outs =
    List.filter_map
      (fun (r, o) -> match r with Ev.Query (Ev.Worst _) -> Some (stable o) | _ -> None)
      (List.combine (List.filter is_query script) outs)
  in
  let agree = worsts out1 = worsts outc in
  let all_cert outs = List.for_all cert_ok outs in
  let cert = all_cert out1 && all_cert outc in
  let qps dt = float_of_int n_queries /. Float.max 1e-9 dt in
  row "%-10s %-8s %-9s %-8s %-22s@." "arm" "queries" "time(s)" "q/s" "worst served c/w/k";
  row "%-10s %-8d %-9.2f %-8.0f %d/%d/%d@." "service" n_queries dt1 (qps dt1)
    n_cached n_warm n_cold;
  row "%-10s %-8d %-9.2f %-8.0f 0/0/%d@." "cold" n_queries dtc (qps dtc) n_worst;
  row
    "service answers %.1fx more queries/sec; warm-hit rate %d/%d worst queries (%d cached + %d warm), %d cold@."
    (dtc /. Float.max 1e-9 dt1)
    (n_cached + n_warm) n_worst n_cached n_warm n_cold;
  row
    "counters: service | events=%d queries=%d worst=%d served c/w/k=%d/%d/%d refuted=%d cert=%s identical(replay)=%b agree(service=cold)=%b@."
    n_events n_queries n_worst n_cached n_warm n_cold
    (count counts1 "hint-refutes")
    (if cert then "ok" else "FAIL")
    identical agree;
  row
    "(the cold arm reconstructs state and solves from scratch per query;      the service invalidation policy re-solves only on estimate drift,      support hits or structural change — a warm re-solve is a plain      analyze of the live state that reuses the screening engine)@."

(* --------------------------------------------------------------- alerting *)

(* Push alerting pipeline (DESIGN.md §16): subscribers with distinct
   tolerance overrides ride the event loop; each accepted structural
   event triggers the two-stage Raha.Alert evaluation — a
   quarter-budget fast screen at the envelope's high corner
   immediately, the full worst-case solve lazily and at most once,
   shared with the query cache. The stream alternates capacity-degrade
   waves (heavy demand + a lag shaved to 1 unit) with relief waves
   (demand squeezed to ~0), so every sensitive subscriber crosses into
   alert and back out repeatedly. Three arms: a variable envelope, whose
   fast stage is a separate fixed-demand solve; a point envelope
   (lo = hi throughout), whose fast stage is the worst query itself, so
   each structural event costs one branch-and-bound solve (solves= must
   equal evaluations=); and a loaded variable envelope, whose relief
   repairs the shaved link and leaves a loaded demand, so the bound
   (the total demand) settles no one and every clear comes from the
   deep stage (bound= must be 0). Push lines drain through the same bounded
   queues the socket server uses — the [counters:] lines carry only
   deterministic quantities and must show dropped=0. *)
let alerting_bench ctx =
  section ctx ~id:"alerting"
    ~paper:"push alerting: two-stage crossing notifications on the live event stream (DESIGN.md §16)"
    ~config:"africa-like WAN (8 nodes), degrade/relief waves, 3 subscribers (tol 0 / 0.05 / default 0.1), variable, point and loaded arms";
  let topo, pairs = wan_small () in
  let paths = paths_of topo pairs in
  let sp = spec ~max_failures:1 () in
  let run_arm ?(repair = false) ~arm ~envelope ~heavy ~relief () =
    let cfg =
      { Service.Core.paths; envelope; options = options ctx sp;
        drift_tol = 0.30; alert_tolerance = 0.1 }
    in
    let core = Service.Core.create cfg topo in
    let al = Service.Core.alerting core in
    (* all three tolerances are crossable, so once every subscriber is
       alerting and the fast stage still exceeds, the deep stage is
       skipped entirely — the bench shows both all-fast and deep-needed
       evaluations *)
    Service.Alerting.subscribe al ~id:1 ~tolerance:(Some 0.);
    Service.Alerting.subscribe al ~id:2 ~tolerance:(Some 0.05);
    Service.Alerting.subscribe al ~id:3 ~tolerance:None;
    let pushes = ref 0 and bad_push = ref 0 in
    (* per stage, the in-process time from the evaluation's start to
       each push leaving the queue *)
    let eval_t0 = ref 0. and latency = Hashtbl.create 3 in
    let drain () =
      let now = Unix.gettimeofday () in
      List.iter
        (fun id ->
          let rec go () =
            match Service.Alerting.next_chunk al ~id with
            | None -> ()
            | Some (line, off) ->
              Service.Alerting.advance al ~id (String.length line - off);
              incr pushes;
              (match Service.Json.of_string (String.trim line) with
              | Ok j
                when Service.Json.to_str (Service.Json.member "push" j) <> None ->
                let stage =
                  Option.value (Service.Json.to_str (Service.Json.member "stage" j)) ~default:"?"
                in
                Hashtbl.replace latency stage
                  ((1000. *. (now -. !eval_t0))
                  :: Option.value (Hashtbl.find_opt latency stage) ~default:[])
              | _ -> incr bad_push);
              go ()
          in
          go ())
        (Service.Alerting.pending_ids al)
    in
    let module Ev = Service.Event in
    let nlags = Wan.Topology.num_lags topo in
    let waves = if ctx.quick then 2 else 6 in
    let events = ref [] in
    let demand_wave t0 (lo, hi) =
      List.iteri
        (fun i (src, dst) ->
          events :=
            Ev.Demand { src; dst; lo; hi; at = t0 +. (0.1 *. float_of_int i) } :: !events)
        pairs
    in
    for w = 1 to waves do
      let t0 = 10. *. float_of_int w in
      (* degrade: demand back to the heavy envelope, then shave a lag *)
      demand_wave t0 heavy;
      events :=
        Ev.Capacity { lag = (w - 1) mod nlags; link = 0; capacity = 1.; at = t0 +. 1. }
        :: !events;
      (* relief: the demand falls to [relief]; with [repair] the shaved
         link also comes back first, so the network clears loaded *)
      if repair then begin
        let lag = (w - 1) mod nlags in
        events :=
          Ev.Capacity
            {
              lag;
              link = 0;
              capacity = (Wan.Topology.lag topo lag).Wan.Lag.links.(0).Wan.Lag.link_capacity;
              at = t0 +. 1.5;
            }
          :: !events
      end;
      demand_wave (t0 +. 2.) relief
    done;
    let events = List.rev !events in
    let fast_t = ref 0. and fast_n = ref 0 in
    let deep_t = ref 0. and deep_n = ref 0 in
    let (), counts, _ =
      scoped (fun () ->
          List.iter
            (fun e ->
              let resp = Service.Core.handle core (Ev.Event e) in
              (match Service.Json.to_bool (Service.Json.member "ok" resp) with
              | Some true -> ()
              | _ -> row "rejected event: %s@." (Service.Json.to_string resp));
              let before = (Service.Alerting.stats al).Service.Alerting.deep_runs in
              let t0 = Unix.gettimeofday () in
              eval_t0 := t0;
              Service.Core.evaluate_alert ~flush:drain core;
              let dt = Unix.gettimeofday () -. t0 in
              drain ();
              let after = (Service.Alerting.stats al).Service.Alerting.deep_runs in
              if after > before then begin
                deep_t := !deep_t +. dt;
                incr deep_n
              end
              else begin
                fast_t := !fast_t +. dt;
                incr fast_n
              end)
            events)
    in
    (* final worst query: the alert pipeline shares the query cache, so
       this should carry a passing certificate without a fresh cold solve *)
    let final =
      Service.Core.handle core (Ev.Query (Ev.Worst { budget = None; max_nodes = None }))
    in
    let cert =
      match Service.Json.to_str (Service.Json.member "cert" final) with
      | Some "ok" -> true
      | _ -> false
    in
    let s = Service.Alerting.stats al in
    let ms t n = 1000. *. t /. float_of_int (max 1 n) in
    row "%-10s %-22s %-8s %-10s@." "envelope" "stage mix" "evals" "ms/eval";
    row "%-10s %-22s %-8d %-10.1f@." arm "fast only" !fast_n (ms !fast_t !fast_n);
    row "%-10s %-22s %-8d %-10.1f@." arm "fast+deep" !deep_n (ms !deep_t !deep_n);
    row "%-10s %-22s %-8s %-10s %-10s@." "envelope" "push stage" "pushes" "p50 ms" "max ms";
    List.iter
      (fun stage ->
        match Hashtbl.find_opt latency stage with
        | None -> row "%-10s %-22s %-8d %-10s %-10s@." arm stage 0 "-" "-"
        | Some xs ->
          let a = Array.of_list xs in
          Array.sort Float.compare a;
          let n = Array.length a in
          let p50 = if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2)) in
          row "%-10s %-22s %-8d %-10.2f %-10.2f@." arm stage n p50 a.(n - 1))
      [ "witness"; "bound"; "fast"; "deep" ];
    row
      "%d structural events -> %d evaluations, %d alerts (%d from the witness) / %d clears (%d from the bound) across 3 subscribers (%d deep stages, %d branch-and-bound solves), %d push lines, %d dropped@."
      (List.length events) s.Service.Alerting.evaluations s.Service.Alerting.alerts
      s.Service.Alerting.witness s.Service.Alerting.clears s.Service.Alerting.bound
      s.Service.Alerting.deep_runs (count counts "bb-solves") !pushes s.Service.Alerting.dropped;
    row
      "counters: alerting | %s | events=%d evaluations=%d solves=%d alerts=%d witness=%d clears=%d bound=%d deep=%d dropped=%d pushes=%d badpush=%d wbad=%d bbad=%d cert=%s@."
      arm (List.length events) s.Service.Alerting.evaluations (count counts "bb-solves")
      s.Service.Alerting.alerts s.Service.Alerting.witness s.Service.Alerting.clears
      s.Service.Alerting.bound s.Service.Alerting.deep_runs s.Service.Alerting.dropped !pushes
      !bad_push s.Service.Alerting.wbad s.Service.Alerting.bbad
      (if cert then "ok" else "FAIL")
  in
  let base = base_demand pairs in
  (* relief squeezes the demand to (near) zero: nothing left to lose *)
  run_arm ~arm:"variable" ~envelope:(Traffic.Envelope.around ~slack:0.3 base)
    ~heavy:(42., 300.) ~relief:(0.01, 0.02) ();
  run_arm ~arm:"point" ~envelope:(Traffic.Envelope.fixed base) ~heavy:(300., 300.)
    ~relief:(0.02, 0.02) ();
  (* relief repairs the shaved link and keeps a loaded demand, so the
     bound (the total demand) settles no one and every clear waits for
     the deep stage *)
  run_arm ~repair:true ~arm:"loaded" ~envelope:(Traffic.Envelope.around ~slack:0.3 base)
    ~heavy:(42., 300.) ~relief:(20., 30.) ();
  row
    "(the fast stage screens the envelope's high corner on a quarter of the      solve budget; the deep stage is the normal worst-case machinery and      shares its cache, so alert evaluations warm later queries and a quiet      network costs no MILP solves at all; on a point envelope the fast      stage is that worst query, one solve per structural event; dropped=0      must hold — nothing here outruns the drain)@."

(* -------------------------------------------------------------------- ffc *)

let ffc ctx =
  section ctx ~id:"ffc"
    ~paper:"§2.2: k-failure-resilient TE (FFC) is safe by design — until the k+1-th failure"
    ~config:"africa-like WAN (8 nodes), 1+1 paths, FFC grant for k=1";
  let topo, pairs = wan_small () in
  let paths = paths_of ~primary:1 ~backup:1 topo pairs in
  let demand = base_demand pairs in
  match Te.Ffc.allocate ~k:1 topo paths demand with
  | None -> row "FFC allocation failed@."
  | Some r ->
    row "FFC grants %.0f of %.0f demanded (%d scenarios enforced)@."
      r.Te.Ffc.total_granted r.Te.Ffc.total_demand r.Te.Ffc.scenarios_considered;
    let grant = Te.Ffc.grant_to_demand r in
    (match Te.Ffc.verify ~k:1 topo paths r with
    | None -> row "verified: the grant survives every single-LAG failure@."
    | Some s -> row "verification FAILED on %a@." Failure.Scenario.pp s);
    row "%-26s %-14s@." "raha analysis of the grant" "degradation";
    List.iter
      (fun (name, sp) ->
        let rep = analyze ctx sp topo paths (Traffic.Envelope.fixed grant) in
        row "%-26s %-14s@." name (deg_str rep))
      [
        ("k <= 1 link (partial LAG)", spec ~max_failures:1 ());
        ("k <= 2 links", spec ~max_failures:2 ());
        ("T >= 1e-5", spec ~threshold:1e-5 ());
        ("T >= 1e-7", spec ~threshold:1e-7 ());
      ];
    row
      "(FFC's LAG-granular guarantee holds, yet Raha exposes two blind spots:        partial-LAG link failures and probable multi-failure scenarios — the §2.2        incident mechanism)@."

(* --------------------------------------------------------------- registry *)

let all : (string * string * (ctx -> unit)) list =
  [
    ("fig1", "worked example (§2.1): fixed 7 / naive 1 / raha 9", fig1);
    ("fig2", "max simultaneous failures vs threshold", fig2);
    ("fig3", "raha vs Max/Average baselines across slack", fig3);
    ("fig5", "degradation vs threshold x k (avg/max/variable demand)", fig5);
    ("fig6", "fig5 under connected-enforced constraints", fig6);
    ("fig7", "degradation vs demand slack", fig7);
    ("fig8", "Uninett2010 with and without clustering", fig8);
    ("fig9", "cluster count vs quality and runtime", fig9);
    ("fig10", "runtime vs paths / threshold / max failures", fig10);
    ("fig11", "LAG augmentation, failable new capacity", fig11);
    ("fig12", "degradation vs #primary (plain+CE) and #backup", fig12);
    ("fig13", "weighted path selection variant", fig13);
    ("fig14", "runtime vs #backup paths", fig14);
    ("fig15", "fig12 with fixed max demand", fig15);
    ("fig16", "timeout sensitivity", fig16);
    ("fig17", "LAG augmentation, non-failable new capacity", fig17);
    ("fig18", "new-LAG (edge) augmentation", fig18);
    ("tab3", "B4 degradation table", tab3);
    ("tab4", "Cogentco degradation table (8 clusters)", tab4);
    ("mlu", "worst-case MLU degradation vs slack (§8.5)", mlu);
    ("ablation", "strong-duality vs KKT encoding (design choice)", ablation);
    ("presolve", "MILP presolve / big-M tightening: model reductions", presolve_bench);
    ("solver", "solver layers: defaults vs no cuts, dense tableau, most-fractional", solver_bench);
    ("montecarlo", "Monte Carlo sampling vs Raha's worst case (§1)", montecarlo);
    ("batch", "batched scenario engine (overlay + warm) vs the Simulate oracle", batch_bench);
    ("service", "always-on service vs cold-solve-per-query replay", service_bench);
    ("alerting", "push alerting: crossings, deep-solve sharing, backpressure", alerting_bench);
    ("ffc", "FFC-protected network still degrades beyond k (§2.2)", ffc);
  ]
