(* sweep: scenario sweeps with no MILP — Monte Carlo sampling on
   Cogentco and on Uninett2010, and brute-force enumeration of every
   single-link failure on Uninett2010. They exercise the scenario-overlay
   engine (Milp.Batch under Te.Simulate) at two working-set sizes and
   never reach branch-and-bound, so a branch-and-bound change should
   leave this workload unchanged.

   Each call is kept short (30-80 ms) so that a run holds a hundred of
   each: a shared machine slows down in bursts of a second or so, and
   only the median of many short calls stays put. Pairs are drawn once
   from a fixed seed (throughput moves by up to 2x with the pair draw);
   the Monte Carlo sample seed follows --seed. *)

type kind = {
  name : string;
  topo : Wan.Topology.t;
  paths : Netpath.Path_set.t;
  demand : Traffic.Demand.t;
  samples : int option;  (** Monte Carlo sample count; [None] = enumerate k <= 1 *)
}

let pair_seed = 2025

let draw_pairs topo n =
  let rng = Random.State.make [| pair_seed; Wan.Topology.num_nodes topo |] in
  let nn = Wan.Topology.num_nodes topo in
  let rec go acc =
    if List.length acc = n then List.rev acc
    else begin
      let a = Random.State.int rng nn and b = Random.State.int rng nn in
      if a = b || List.mem (a, b) acc || List.mem (b, a) acc then go acc else go ((a, b) :: acc)
    end
  in
  go []

(* Returns the kinds and the time spent computing paths. *)
let make_kinds () =
  let paths_s = ref 0. in
  let prep topo npairs =
    let pairs = draw_pairs topo npairs in
    let t0 = Unix.gettimeofday () in
    let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 topo pairs in
    paths_s := !paths_s +. (Unix.gettimeofday () -. t0);
    let vol = Wan.Topology.avg_lag_capacity topo /. 2. in
    (paths, Traffic.Demand.of_list (List.map (fun p -> (p, vol)) pairs))
  in
  let cogentco = Wan.Zoo.cogentco () and uninett = Wan.Zoo.uninett2010 () in
  let c_paths, c_demand = prep cogentco 24 in
  let u_paths, u_demand = prep uninett 16 in
  ( [
      { name = "mc-cogentco"; topo = cogentco; paths = c_paths; demand = c_demand;
        samples = Some 128 };
      { name = "mc-uninett"; topo = uninett; paths = u_paths; demand = u_demand;
        samples = Some 512 };
      { name = "enum-uninett-k1"; topo = uninett; paths = u_paths; demand = u_demand;
        samples = None };
    ],
    !paths_s )

(* Digests of a sweep's result bits. *)
let digest_all degs =
  Digest.string (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") degs)))

let digest_worst worst scenario =
  Digest.string (Format.asprintf "%h %a" worst Failure.Scenario.pp scenario)

(* One sweep call as a user makes it: the scenario count and a digest. *)
let call ~seed k =
  match k.samples with
  | Some samples ->
    let degs, _ = Te.Monte_carlo.sample_degradations ~seed ~samples k.topo k.paths k.demand in
    (samples, digest_all degs)
  | None ->
    let r = Raha.Baselines.enumerate_failures ~k:1 k.topo k.paths k.demand in
    ( r.Raha.Baselines.scenarios_evaluated,
      digest_worst r.Raha.Baselines.worst r.Raha.Baselines.worst_scenario )

(* Te.Monte_carlo's scenario draw (not exported): independent link
   failures in fixed blocks of 64 samples, block [b] from an RNG seeded
   [| seed; b |]. *)
let draw ~seed ~samples topo =
  let sample rng =
    let links = ref [] in
    Array.iter
      (fun (lag : Wan.Lag.t) ->
        Array.iteri
          (fun i (l : Wan.Lag.link) ->
            if l.Wan.Lag.fail_prob > 0. && Random.State.float rng 1. < l.Wan.Lag.fail_prob then
              links := (lag.Wan.Lag.lag_id, i) :: !links)
          lag.Wan.Lag.links)
      (Wan.Topology.lags topo);
    Failure.Scenario.of_links topo !links
  in
  let out = Array.make samples Failure.Scenario.empty in
  for b = 0 to ((samples + 63) / 64) - 1 do
    let rng = Random.State.make [| seed; b |] in
    for i = b * 64 to min samples ((b + 1) * 64) - 1 do
      out.(i) <- sample rng
    done
  done;
  out

(* The same call rebuilt from Te.Simulate's public engine, one span per
   layer and one timing per overlay. Must reproduce [call]'s digest. *)
let traced_call tr ~op ~overlays ~seed k =
  Trace.span tr ~op "sweep.call" (fun () ->
      let eng =
        Trace.span tr "batch.prepare" (fun () -> Te.Simulate.prepare k.topo k.paths k.demand)
      in
      let eng = match eng with Some e -> e | None -> invalid_arg "healthy network cannot route" in
      let scenarios =
        Trace.span tr "sweep.draw" (fun () ->
            match k.samples with
            | Some samples -> draw ~seed ~samples k.topo
            | None -> Array.of_list (Failure.Enumerate.up_to_k k.topo ~k:1))
      in
      (* an infeasible scenario counts as the healthy performance in
         Monte Carlo and is skipped by enumeration *)
      let miss =
        match k.samples with
        | Some _ -> (Te.Simulate.engine_healthy eng).Te.Simulate.performance
        | None -> neg_infinity
      in
      let degs =
        Trace.span tr "batch.overlays" (fun () ->
            Array.map
              (fun s ->
                let t0 = Unix.gettimeofday () in
                let d = Option.value (Te.Simulate.degradation_prepared eng s) ~default:miss in
                overlays := (Unix.gettimeofday () -. t0) :: !overlays;
                d)
              scenarios)
      in
      match k.samples with
      | Some samples -> (samples, digest_all degs)
      | None ->
        (* the first scenario reaching the maximum, as enumerate_failures *)
        let w = ref 0 in
        Array.iteri (fun i d -> if d > degs.(!w) then w := i) degs;
        (Array.length scenarios, digest_worst degs.(!w) scenarios.(!w)))

let run ~seed ~seconds ~trace ~trace_out =
  (* set-up runs five times before the measured loop and five after *)
  let setups = ref [] in
  let setup () =
    let t0 = Unix.gettimeofday () in
    let kinds, paths_s = make_kinds () in
    setups := (Unix.gettimeofday () -. t0, paths_s) :: !setups;
    kinds
  in
  let kinds = List.hd (List.init 5 (fun _ -> setup ())) in
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  let attempted = ref 0 in
  let walls = Hashtbl.create 4 and traced_walls = Hashtbl.create 4 in
  let digests = Hashtbl.create 4 and records = Hashtbl.create 4 and scen = Hashtbl.create 4 in
  let add tbl k v = Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[]) in
  let same tbl key v what =
    match Hashtbl.find_opt tbl key with
    | Some prev when prev <> v -> fail (Printf.sprintf "%s: %s differs between repetitions" key what)
    | _ -> Hashtbl.replace tbl key v
  in
  let tr = Trace.create "sweep" in
  let overlays = ref [] in
  let start = Unix.gettimeofday () in
  let rounds = ref 0 in
  while !rounds = 0 || Unix.gettimeofday () -. start < seconds do
    (* Monte Carlo calls cycle through sixteen sample seeds drawn from
       --seed, so one draw's luck does not set a run's median; each
       (kind, seed) must give the same bits every time it recurs *)
    let sub = !rounds mod 16 in
    let mc_seed = (seed * 16) + sub in
    List.iter
      (fun k ->
        incr attempted;
        let key = Printf.sprintf "%s/%d" k.name (if k.samples = None then 0 else sub) in
        let scope = Milp.Lp_stats.scope_enter ~hooks:Trace.hooks () in
        let t0 = Unix.gettimeofday () in
        let n, digest = call ~seed:mc_seed k in
        add walls k.name (Unix.gettimeofday () -. t0);
        let rep = Milp.Lp_stats.scope_exit scope in
        let audit_failures = List.assoc "certify-failures" rep.Milp.Lp_stats.scope_counters in
        if audit_failures > 0 then fail (Printf.sprintf "%s: %d overlay audits failed" k.name audit_failures);
        Hashtbl.replace scen k.name n;
        same digests key digest "result";
        same records key (Trace.record rep.Milp.Lp_stats.scope_counters) "counters";
        if trace then begin
          incr attempted;
          let t0 = Unix.gettimeofday () in
          let n', digest' = traced_call tr ~op:!attempted ~overlays ~seed:mc_seed k in
          add traced_walls k.name (Unix.gettimeofday () -. t0);
          if n' <> n || digest' <> digest then fail (k.name ^ ": traced result differs from the call")
        end)
      (Cells.rotate (seed + !rounds) kinds);
    incr rounds
  done;
  for _ = 1 to 5 do ignore (setup ()) done;
  let setup_s = Stats.median (List.map fst !setups) and paths_s = Stats.median (List.map snd !setups) in
  let medians = List.map (fun k -> (k, Stats.median (Hashtbl.find walls k.name))) kinds in
  let gmean = Stats.gmean (List.map snd medians) in
  let max_med = List.fold_left (fun acc (_, m) -> Float.max acc m) 0. medians in
  let total_scen = List.fold_left (fun acc (k, _) -> acc + Hashtbl.find scen k.name) 0 medians in
  let total_time = List.fold_left (fun acc (_, m) -> acc +. m) 0. medians in
  let passes = float_of_int !rounds in
  let cnt name key = float_of_int (Trace.counter tr name key) /. passes in
  let ratio num den = if den = 0. then 0. else num /. den in
  let per_layer =
    if not trace then []
    else
      [
        ("certify.checks", cnt "batch.overlays" "certify-checks");
        ("certify.failures", cnt "batch.overlays" "certify-failures");
        ("paths.s", paths_s);
        ("batch.prepare_s", Trace.total tr "batch.prepare" /. passes);
        ("batch.overlay_us", 1e6 *. Stats.median !overlays);
        ("batch.factorizations", cnt "batch.prepare" "factorizations" +. cnt "batch.overlays" "factorizations");
        ( "batch.warm_hit_ratio",
          ratio (cnt "batch.overlays" "batch-warm-hits") (cnt "batch.overlays" "batch-overlays") );
        ( "trace.overhead_frac",
          Stats.gmean
            (List.map
               (fun (k, m) -> Stats.median (Hashtbl.find traced_walls k.name) /. m)
               medians)
          -. 1. );
        ("trace.coverage_frac", Trace.coverage tr "sweep.call");
      ]
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
      Output.metric "scenarios_per_s" "1/s" (float_of_int total_scen /. total_time)
      :: Output.metric "rounds" "count" passes
      :: List.concat_map
           (fun (k, m) ->
             [
               Output.metric ("call_s." ^ k.name) "s" m;
               Output.metric ("scenarios_per_s." ^ k.name) "1/s"
                 (float_of_int (Hashtbl.find scen k.name) /. m);
             ])
           medians;
    (* the first round's calls, which every run makes *)
    counters =
      String.concat " | "
        (List.map
           (fun k -> Printf.sprintf "%s: %s" k.name (Hashtbl.find records (k.name ^ "/0")))
           kinds);
  }
