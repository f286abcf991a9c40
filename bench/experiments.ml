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
      row "%-12g %-14s %-14s@." thr (deg_str plain)
        (deg_str clustered.Raha.Cluster.report))
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
      let r =
        if clusters = 1 then
          let rep = Raha.Analysis.analyze ~options:opt topo paths envelope in
          rep
        else
          (Raha.Cluster.analyze ~options:opt ~clusters topo paths envelope).Raha.Cluster.report
      in
      row "%-10d %-14s %-12.1f@." clusters (deg_str r) (Unix.gettimeofday () -. t0))
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
      row "%-12g %-8s %-14s@." thr (k_str k) (deg_str r.Raha.Cluster.report))
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

(* Presolve over the bilevel encodings: model shrinkage from the
   Milp.Presolve reductions, then the end-to-end solve cost (nodes,
   simplex pivots, wall time) of the presolved analysis. The measured
   rows are recorded in BENCH_presolve.json. *)
let presolve_bench ctx =
  section ctx ~id:"presolve"
    ~paper:"MILP presolve / big-M tightening (DESIGN.md)"
    ~config:"fig1 worked example (sd:5, kkt) + africa-like WAN (8 nodes, sd:3)";
  let cells = solver_cells () in
  row "%-14s %8s %6s %5s %4s %8s %6s %5s %6s %6s@." "model" "rows" "cols" "int"
    "->" "rows" "cols" "bigM" "fixed" "passes";
  List.iter
    (fun (name, sp, topo, paths, env) ->
      let built = Raha.Bilevel.build sp topo paths env in
      let m = built.Raha.Bilevel.model in
      match Milp.Presolve.presolve m with
      | Milp.Presolve.Reduced { model = rm; stats; _ } ->
        row "%-14s %8d %6d %5d %4s %8d %6d %5d %6d %6d@." name
          (Milp.Model.num_cons m) (Milp.Model.num_vars m)
          (Milp.Model.num_int_vars m) "->" (Milp.Model.num_cons rm)
          (Milp.Model.num_vars rm) stats.Milp.Presolve.big_ms_tightened
          stats.Milp.Presolve.cols_fixed stats.Milp.Presolve.passes
      | Milp.Presolve.Infeasible _ -> row "%-14s infeasible@." name)
    cells;
  row "@.";
  ignore
    (ablate ctx ~id:"presolve" ~fields:[ "deg"; "nodes"; "pivots"; "certify"; "cert" ] cells
       [ arm "on" Fun.id ])

let no_cuts o = { o with Raha.Analysis.cuts = Milp.Cuts.disabled }

(* -------------------------------------------------------------- revised *)

(* Revised-simplex ablation: the same cells as the presolve experiment,
   solved end-to-end with the legacy dense tableau vs the revised engine
   (sparse LU basis + dual-simplex warm starts across B&B nodes). Cuts
   are off in both arms so this stays a pure engine ablation (the cut
   ablation is the "cuts" experiment) and the BENCH_revised.json
   baselines remain comparable. *)
let revised_bench ctx =
  section ctx ~id:"revised"
    ~paper:"revised simplex / dual warm-start ablation (DESIGN.md §9)"
    ~config:
      "fig1 worked example (sd:5, kkt) + africa-like WAN (8 nodes, sd:3); cuts disabled (pure engine ablation)";
  ignore
    (ablate ctx ~id:"revised"
       ~fields:[ "deg"; "nodes"; "pivots"; "dual"; "fact"; "eta"; "warm"; "certify"; "cert" ]
       (solver_cells ~wan8:(not ctx.quick) ())
       [
         arm "dense" (fun o -> { (no_cuts o) with Raha.Analysis.dense_simplex = true });
         arm "revised" no_cuts;
       ]);
  row
    "(warm is dual-simplex hits/attempts; identical node counts with      fewer pivots show the per-node saving)@."

(* ----------------------------------------------------------------- cuts *)

(* Cutting-plane ablation: the same cells solved with the cut subsystem
   enabled vs disabled (the revised engine in both arms). Cuts are
   globally valid tightenings of the LP relaxation, so the two arms must
   report bit-identical degradations while branch-and-bound visits fewer
   nodes with cuts on. The cut-pool fields are gen (candidates
   generated), app (cuts admitted to the pool), pruned (aged out or
   removed by audit) and aud (incumbent-audit failures, must stay 0).
   The measured rows are recorded in BENCH_cuts.json. *)
let cuts_bench ctx =
  section ctx ~id:"cuts"
    ~paper:"cutting-plane ablation: Gomory/cover/clique pool (DESIGN.md §11)"
    ~config:
      "fig1 worked example (sd:5, kkt) + africa-like WAN (8 nodes, sd:3); revised engine";
  ignore
    (ablate ctx ~id:"cuts"
       ~fields:
         [ "deg"; "nodes"; "pivots"; "dual"; "warm"; "gen"; "app"; "pruned"; "aud";
           "certify"; "cert" ]
       (solver_cells ~wan8:(not ctx.quick) ())
       [ arm "on" Fun.id; arm "off" no_cuts ]);
  row
    "(bit-identical degradations with fewer nodes when cuts are on; aud      counts incumbent-audit failures and must be 0)@."

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
  let degs, scens, oracle =
    Parallel.Pool.with_pool ~domains:ctx.domains (fun pool ->
        let degs, scens =
          Te.Monte_carlo.sample_degradations ~pool ~seed:1 ~samples topo paths peak
        in
        (* brute-force enumeration to k=2 on the same pool: the oracle
           the sampled tail is compared against *)
        let oracle = Raha.Baselines.enumerate_failures ~pool ~k:2 topo paths peak in
        if ctx.domains > 1 then
          row "%a@." Parallel.Pool.pp_stats (Parallel.Pool.stats pool);
        (degs, scens, oracle))
  in
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
   rhs overlays + warm dual solves from the healthy basis. Every sampled
   scenario and every enumeration worst case is re-routed by the
   independent Te.Simulate.degradation oracle (its own formulation and
   cold solve, outside the counter scope); the "agree(oracle)=" line
   asserts they match within 1e-6 relative. The sweeps run on one
   domain so the scope counters see every scenario; CI gates on bwarm
   (batched warm hits) staying nonzero, cert=ok (zero Batch.check audit
   failures) and agree(oracle)=true. Measured scenarios/sec rows are
   recorded in BENCH_batch.json. *)
let batch_bench ctx =
  section ctx ~id:"batch"
    ~paper:"batched scenario engine: one symbolic factorization, warm overlay solves (DESIGN.md §12)"
    ~config:"africa-like WAN (8 nodes), Monte Carlo + k-enumeration sweeps vs the Simulate oracle";
  let topo, pairs = wan_small () in
  let paths = paths_of topo pairs in
  let peak = Traffic.Demand.scale 1.3 (base_demand pairs) in
  let mc_samples = if ctx.quick then 512 else 2048 in
  let fields = [ "scen"; "warm"; "bwarm"; "overlays"; "prepares"; "fact"; "certify"; "cert" ] in
  print_header fields;
  let agrees (deg, scenario) =
    match Te.Simulate.degradation topo paths peak scenario with
    | Some d -> Float.abs (d -. deg) <= 1e-6 *. (1. +. Float.abs d)
    | None -> false
  in
  let run_cell name scen solve =
    let checked, counts, wall = scoped solve in
    print_run ~id:"batch" ~cell:name ~arm:"on" ~fields ~wall
      (("scen", string_of_int scen)
      :: ("cert", if count counts "certify-failures" = 0 then "ok" else "FAIL")
      :: count_fields counts);
    let agree = Array.for_all agrees checked in
    row "%s: %.2fs, %.0f scen/s, oracle %s@." name wall
      (float_of_int scen /. Float.max 1e-9 wall)
      (if agree then "agrees" else "MISMATCH");
    row "counters: batch | %s | agree(oracle)=%b@." name agree
  in
  run_cell "mc" mc_samples (fun () ->
      let degs, scens =
        Te.Monte_carlo.sample_degradations ~seed:1 ~samples:mc_samples topo paths peak
      in
      Array.combine degs scens);
  List.iter
    (fun k ->
      run_cell
        (Printf.sprintf "enum k=%d" k)
        (List.length (Failure.Enumerate.up_to_k topo ~k))
        (fun () ->
          let r = Raha.Baselines.enumerate_failures ~k topo paths peak in
          [| (r.Raha.Baselines.worst, r.Raha.Baselines.worst_scenario) |]))
    (if ctx.quick then [ 1 ] else [ 1; 2 ]);
  row
    "(bwarm counts warm dual overlay solves, certify the Batch.check audits —      failures must be 0)@."

(* ----------------------------------------------------------- bb-parallel *)

(* Parallel rounds engage on these small trees at this width and grain. *)
let small_rounds o = { o with Raha.Analysis.bb_width = 2; bb_grain = 4 }

(* Parallel branch-and-bound (DESIGN.md §14): bilevel cells solved twice
   — sequentially (no pool, rounds run inline) and on a ctx.domains
   pool — with a tiny round width/grain so the parallel scheduler
   engages. Both arms print only schedule-independent fields, so CI runs
   the experiment at --domains 1 and --domains 4 and diffs the lines;
   the per-cell [identical=] flag also compares the two arms of one run
   bit for bit. Wall-clock and the pool's busy/wall overlap are plain
   rows (not diffed), recorded in BENCH_bb_parallel.json. *)
let bb_parallel ctx =
  section ctx ~id:"bb-parallel"
    ~paper:"parallel branch-and-bound: subtree rounds, shared incumbent (DESIGN.md §14)"
    ~config:"fig1 + africa-like bilevel cells, bb_width=2 bb_grain=4, domains 1 vs N";
  let fig1_topo = Wan.Generators.fig1 () in
  let fig1_paths = paths_of ~primary:2 ~backup:0 fig1_topo [ (1, 3); (2, 3) ] in
  let typical = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let fig1_env = Traffic.Envelope.around ~slack:0.5 typical in
  let topo2, pairs2 = wan_small () in
  let paths2 = paths_of topo2 pairs2 in
  let env2 = Traffic.Envelope.from_zero ~slack:0.2 (base_demand pairs2) in
  let runs =
    ablate ctx ~id:"bb-parallel" ~fields:identity_fields
      [
        ("fig1 k=1", spec ~max_failures:1 ~levels:5 (), fig1_topo, fig1_paths, fig1_env);
        ("fig1 k=2", spec ~max_failures:2 ~levels:5 (), fig1_topo, fig1_paths, fig1_env);
        ("africa", spec ~threshold:1e-4 ~max_failures:2 (), topo2, paths2, env2);
      ]
      [ arm "dom=1" small_rounds; arm ~pooled:true "dom=N" small_rounds ]
  in
  print_identity ~id:"bb-parallel" runs;
  let rounds = total ~keep:(( = ) "dom=N") runs "bb-rounds" in
  row "counters: bb-parallel | total | rounds=%d engaged=%b@." rounds (rounds > 0);
  row
    "(both arms run the same round scheduler — it engages on frontier width, the      pool only moves where subtrees solve — so every line above must be identical      at --domains 1 and --domains 4, and aud must be 0)@."

(* ----------------------------------------------------------- branching *)

(* Branching-rule and primal-heuristics ablation: the solver cells
   solved with the legacy search (most-fractional branching, plunge-only
   incumbents — the exact pre-pseudocost code path) versus the default
   reliability branching with the pump/RINS heuristics enabled. Both
   arms solve the same bilevel MILPs to optimality, so the degradations
   must agree; the reliability arm must visit fewer nodes (recorded in
   BENCH_branching.json against BENCH_cuts.json's 53/15-node baselines).
   The fields add sb (strong-branching probes), pcu (pseudocost
   observations), hs/hr (heuristic incumbents accepted / rejected by the
   unified-tolerance re-check — hr must stay 0 on this corpus, and every
   hs passed the same tolerance Certify enforces). A second table
   re-solves the reliability arm at bb_width=2 sequentially and on a
   ctx.domains pool — pseudocost tables are frozen during parallel
   rounds and merged in frontier order, so [identical=] must hold at any
   pool width. *)
let branching_bench ctx =
  section ctx ~id:"branching"
    ~paper:"reliability branching + primal heuristics vs most-fractional (DESIGN.md §15)"
    ~config:
      "fig1 worked example (sd:5, kkt) + africa-like WAN (8 nodes, sd:3); revised engine";
  let cells = solver_cells ~wan8:(not ctx.quick) () in
  let runs =
    ablate ctx ~id:"branching"
      ~fields:
        [ "deg"; "nodes"; "pivots"; "dual"; "sb"; "pcu"; "hs"; "hr"; "aud"; "certify"; "cert" ]
      cells
      [
        arm "frac" (fun o ->
            { o with Raha.Analysis.branching = Milp.Branch_bound.Fractional; heuristics = false });
        (* the defaults: reliability branching, pump and RINS on *)
        arm "rel" Fun.id;
      ]
  in
  print_identity ~id:"branching"
    (ablate ctx ~id:"branching" ~fields:identity_fields cells
       [ arm "ident-seq" small_rounds; arm ~pooled:true "ident" small_rounds ]);
  let sb = total runs "sb-probes" and pcu = total runs "pseudocost-updates" in
  row "counters: branching | total | sb=%d pcu=%d hs=%d hr=%d engaged=%b@." sb pcu
    (total runs "heuristic-solutions")
    (total runs "heuristic-rejections")
    (sb > 0 && pcu > 0);
  row
    "(same degradations both arms; fewer nodes under rel; hr must be 0 — every      heuristic incumbent is re-checked at the certifier's tolerance before      acceptance; identical= must hold at any --domains)@."

(* ---------------------------------------------------------------- service *)

(* Always-on degradation service (DESIGN.md §13): a recorded telemetry
   stream with interleaved worst-case / "now" / status queries, replayed
   through the Service.Core ingestion + invalidation + incremental
   re-solve loop (service arm) versus an arm that reconstructs state and
   solves cold for every query (cold arm). The service arm is run at
   domains=1 and domains=4 and the two stripped answer sequences must be
   bit-identical; the per-worst-query solve-relevant fields must also
   agree between the service and cold arms — an answer is only ever
   reused when a full re-solve would have said the same thing. The
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
  let cfg domains =
    {
      Service.Core.paths;
      envelope;
      options = { (options ctx sp) with Raha.Analysis.domains };
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
  let service_arm domains =
    let core = Service.Core.create (cfg domains) topo in
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
            let core = Service.Core.create (cfg 1) topo in
            List.iter
              (fun e -> ignore (Service.Core.handle core e))
              (List.rev !prefix);
            Some (render (Service.Core.handle core r)))
        script
    in
    (out, Unix.gettimeofday () -. t0)
  in
  let out1, dt1, (n_cached, n_warm, n_cold) = service_arm 1 in
  let out4, _, _ = service_arm 4 in
  let outc, dtc = cold_arm () in
  let identical = out1 = out4 in
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
    "counters: service | events=%d queries=%d worst=%d served c/w/k=%d/%d/%d cert=%s identical(domains 1v4)=%b agree(service=cold)=%b@."
    n_events n_queries n_worst n_cached n_warm n_cold
    (if cert then "ok" else "FAIL")
    identical agree;
  row
    "(the cold arm reconstructs state and solves from scratch per query;      the service invalidation policy re-solves only on estimate drift,      support hits or structural change — a warm re-solve is a plain      analyze of the live state that reuses the screening engine)@."

(* --------------------------------------------------------------- alerting *)

(* Push alerting pipeline (DESIGN.md §16): subscribers with distinct
   tolerance overrides ride the event loop; each accepted structural
   event triggers the two-stage Raha.Alert evaluation — a
   quarter-budget fixed-envelope fast screen immediately, the full
   worst-case solve lazily and at most once, shared with the query
   cache. The stream alternates capacity-degrade waves (heavy demand
   envelope + a lag shaved to 1 unit) with relief waves (envelope
   squeezed to ~0), so every sensitive subscriber crosses into alert
   and back out repeatedly. Push lines drain through the same bounded
   queues the socket server uses — the [counters:] line carries only
   deterministic quantities and must show dropped=0. *)
let alerting_bench ctx =
  section ctx ~id:"alerting"
    ~paper:"push alerting: two-stage crossing notifications on the live event stream (DESIGN.md §16)"
    ~config:"africa-like WAN (8 nodes), degrade/relief waves, 3 subscribers (tol 0 / 0.05 / default 0.1)";
  let topo, pairs = wan_small () in
  let paths = paths_of topo pairs in
  let envelope = Traffic.Envelope.around ~slack:0.3 (base_demand pairs) in
  let sp = spec ~max_failures:1 () in
  let cfg =
    { Service.Core.paths; envelope; options = options ctx sp;
      drift_tol = 0.30; alert_tolerance = 0.1 }
  in
  let core = Service.Core.create cfg topo in
  let al = Service.Core.alerting core in
  (* all three tolerances are crossable, so once every subscriber is
     alerting and the fast stage still exceeds, the deep solve is
     skipped entirely — the bench shows both all-fast and deep-needed
     evaluations *)
  Service.Alerting.subscribe al ~id:1 ~tolerance:(Some 0.);
  Service.Alerting.subscribe al ~id:2 ~tolerance:(Some 0.05);
  Service.Alerting.subscribe al ~id:3 ~tolerance:None;
  let pushes = ref 0 and bad_push = ref 0 in
  let drain () =
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
              ()
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
  for w = 1 to waves do
    let t0 = 10. *. float_of_int w in
    (* degrade: demand back to the heavy envelope, then shave a lag *)
    List.iteri
      (fun i (src, dst) ->
        events :=
          Ev.Demand
            { src; dst; lo = 42.; hi = 300.; at = t0 +. (0.1 *. float_of_int i) }
          :: !events)
      pairs;
    events :=
      Ev.Capacity { lag = (w - 1) mod nlags; link = 0; capacity = 1.; at = t0 +. 1. }
      :: !events;
    (* relief: squeeze the envelope to (near) zero — nothing left to lose *)
    List.iteri
      (fun i (src, dst) ->
        events :=
          Ev.Demand
            { src; dst; lo = 0.01; hi = 0.02;
              at = t0 +. 2. +. (0.1 *. float_of_int i) }
          :: !events)
      pairs
  done;
  let events = List.rev !events in
  let fast_t = ref 0. and fast_n = ref 0 in
  let deep_t = ref 0. and deep_n = ref 0 in
  List.iter
    (fun e ->
      let resp = Service.Core.handle core (Ev.Event e) in
      (match Service.Json.to_bool (Service.Json.member "ok" resp) with
      | Some true -> ()
      | _ -> row "rejected event: %s@." (Service.Json.to_string resp));
      let before = (Service.Alerting.stats al).Service.Alerting.deep_runs in
      let t0 = Unix.gettimeofday () in
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
    events;
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
  row "%-22s %-8s %-10s@." "stage mix" "evals" "ms/eval";
  row "%-22s %-8d %-10.1f@." "fast only" !fast_n (ms !fast_t !fast_n);
  row "%-22s %-8d %-10.1f@." "fast+deep" !deep_n (ms !deep_t !deep_n);
  row
    "%d structural events -> %d evaluations, %d alerts / %d clears across 3 subscribers (%d deep solves), %d push lines, %d dropped@."
    (List.length events) s.Service.Alerting.evaluations s.Service.Alerting.alerts
    s.Service.Alerting.clears s.Service.Alerting.deep_runs !pushes
    s.Service.Alerting.dropped;
  row
    "counters: alerting | events=%d evaluations=%d alerts=%d clears=%d deep=%d dropped=%d pushes=%d badpush=%d cert=%s@."
    (List.length events) s.Service.Alerting.evaluations s.Service.Alerting.alerts
    s.Service.Alerting.clears s.Service.Alerting.deep_runs
    s.Service.Alerting.dropped !pushes !bad_push
    (if cert then "ok" else "FAIL");
  row
    "(the fast stage screens the envelope's high corner on a quarter of the      solve budget; the deep stage is the normal worst-case machinery and      shares its cache, so alert evaluations warm later queries and a quiet      network costs no MILP solves at all; dropped=0 must hold — nothing      here outruns the drain)@."

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
    ("presolve", "MILP presolve / big-M tightening: reductions and solve cost", presolve_bench);
    ("revised", "revised simplex + dual warm starts vs dense tableau", revised_bench);
    ("cuts", "cutting planes (Gomory/cover/clique pool) on vs off", cuts_bench);
    ("montecarlo", "Monte Carlo sampling vs Raha's worst case (§1)", montecarlo);
    ("batch", "batched scenario engine (overlay + warm) vs the Simulate oracle", batch_bench);
    ("bb-parallel", "parallel branch-and-bound rounds, domains 1 vs N", bb_parallel);
    ("branching", "reliability branching + heuristics vs most-fractional", branching_bench);
    ("service", "always-on service vs cold-solve-per-query replay", service_bench);
    ("alerting", "push alerting: crossings, deep-solve sharing, backpressure", alerting_bench);
    ("ffc", "FFC-protected network still degrades beyond k (§2.2)", ffc);
  ]
