(* The fork-join map, and the determinism contract of the analysis:
   results must be bit-identical whatever the domain count, both for the
   clustered analysis (the map's one library user) and for the
   unclustered one, which runs on the calling domain. The parallel side
   runs on [RAHA_TEST_DOMAINS] domains (default 4) — the CI alias pins
   it to 2 so both worker counts get exercised. Also the block layout
   of the seeded Monte Carlo draw. *)

let domains =
  match Sys.getenv_opt "RAHA_TEST_DOMAINS" with
  | Some s -> ( match int_of_string_opt s with Some d when d >= 2 -> d | _ -> 4)
  | None -> 4

let check_int = Alcotest.(check int)

(* --- map units ---------------------------------------------------------- *)

let map f a = Parallel.Pool.map ~domains f a

(* a registered counter bumped by every item, wherever it runs *)
let hits = Parallel.Counter.make "test-hits"

(* Sweeps of 64 items, each sleeping so the workers claim items too,
   repeated until a worker domain ran one (at most 20); every sweep must
   credit each bump to the caller exactly once. True when a worker ran
   items. *)
let sweeps_reach_a_worker () =
  let caller = Domain.self () in
  let rec sweep k =
    let before = Parallel.Counter.get hits in
    let ran_on =
      map
        (fun _ ->
          Unix.sleepf 0.0005;
          Parallel.Counter.incr hits;
          Domain.self ())
        (Array.init 64 Fun.id)
    in
    check_int (Printf.sprintf "sweep %d: credited once" k) 64
      (Parallel.Counter.get hits - before);
    Array.exists (fun d -> d <> caller) ran_on || (k < 20 && sweep (k + 1))
  in
  sweep 1

let test_empty_input () =
  check_int "map of empty" 0 (Array.length (map (fun _ -> Alcotest.fail "called on empty") [||]))

let test_single_item () =
  Alcotest.(check (array int)) "one item" [| 42 |] (map (fun x -> x * 2) [| 21 |])

let test_more_domains_than_items () =
  Alcotest.(check (array int)) "three items, eight domains" [| 1; 4; 9 |]
    (Parallel.Pool.map ~domains:8 (fun x -> x * x) [| 1; 2; 3 |])

let test_order_preserved () =
  let input = Array.init 1000 (fun i -> i) in
  Alcotest.(check (array int)) "map order" (Array.map (fun i -> i * i) input)
    (map (fun i -> i * i) input)

let test_each_item_once () =
  (* every element is evaluated exactly once, whichever domain claims it *)
  let calls = Array.init 500 (fun _ -> Atomic.make 0) in
  ignore (map (fun i -> Atomic.incr calls.(i)) (Array.init 500 Fun.id));
  Alcotest.(check (array int)) "one call per item" (Array.make 500 1) (Array.map Atomic.get calls)

exception Boom of int

let test_exception_propagation () =
  (match map (fun i -> if i = 17 then raise (Boom i)) (Array.init 100 Fun.id) with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Boom 17 -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e));
  (* a failed sweep leaves nothing behind: the caller is not left
     marked as inside a task, so a later map still fans out *)
  Alcotest.(check (array int)) "a later map works" [| 2; 4 |] (map (fun x -> 2 * x) [| 1; 2 |]);
  Alcotest.(check bool) "a later map reaches a worker" true (sweeps_reach_a_worker ())

let test_failure_skips_unclaimed () =
  (* once an item has raised, no domain claims another: when every item
     raises, each of the [domains] domains runs at most one *)
  let calls = Atomic.make 0 in
  (match
     map
       (fun i ->
         Atomic.incr calls;
         raise (Boom i))
       (Array.init 100 Fun.id)
   with
  | _ -> Alcotest.fail "exception swallowed"
  | exception Boom _ -> ());
  let n = Atomic.get calls in
  Alcotest.(check bool) (Printf.sprintf "%d calls, at most %d" n domains) true
    (n >= 1 && n <= domains)

let test_nested_map_same_pool () =
  (* a map issued from a map task at the same width runs inline — same
     results, no deadlock *)
  let r = map (fun x -> Array.fold_left ( + ) 0 (map succ [| x; x |])) (Array.init 64 Fun.id) in
  Alcotest.(check (array int)) "nested same-width map" (Array.init 64 (fun x -> 2 * (x + 1))) r

let test_nested_map_other_pool () =
  (* both nesting directions between two widths: the outer sweep owns
     the fan-out, the inner call runs inline *)
  let wide f a = Parallel.Pool.map ~domains:(domains + 2) f a in
  let squares_of x inner = Array.fold_left ( + ) 0 (inner (fun y -> y * y) [| x; x + 1 |]) in
  let expected = Array.init 48 (fun x -> (x * x) + ((x + 1) * (x + 1))) in
  Alcotest.(check (array int)) "narrow calls wide" expected
    (map (fun x -> squares_of x wide) (Array.init 48 Fun.id));
  Alcotest.(check (array int)) "wide calls narrow" expected
    (wide (fun x -> squares_of x map) (Array.init 48 Fun.id))

let test_nested_sequential_pool_ok () =
  (* [domains:1] runs inline and is legal anywhere, including inside a
     task of a parallel map *)
  let r =
    map
      (fun x -> Array.fold_left ( + ) 0 (Parallel.Pool.map ~domains:1 succ [| x; x |]))
      [| 1; 2; 3 |]
  in
  Alcotest.(check (array int)) "inline inner map" [| 4; 6; 8 |] r

let test_pool_in_task_is_sequential () =
  (* a map issued inside a task runs every item on the task's domain.
     Alcotest checks are not domain-safe: record the domains in the
     task, check them back on the calling domain. *)
  let r =
    map
      (fun _ -> (Domain.self (), map (fun _ -> Domain.self ()) (Array.init 8 Fun.id)))
      (Array.init 48 Fun.id)
  in
  Alcotest.(check bool) "inner items on the task's domain" true
    (Array.for_all (fun (d, inner) -> Array.for_all (fun d' -> d' = d) inner) r);
  (* outside a task the same call fans out again *)
  Alcotest.(check bool) "outside a task a map reaches a worker" true (sweeps_reach_a_worker ())

let test_counters_credited () =
  Alcotest.(check bool) "a worker domain ran items" true (sweeps_reach_a_worker ())

let test_counters_accumulate () =
  (* sweeps of any size, empty and single-item ones included, stay
     position-stable and add every item's bump to the caller's counter *)
  let sizes = [ 1; 7; 64; 0; 300 ] in
  let before = Parallel.Counter.get hits in
  List.iter
    (fun n ->
      let input = Array.init n (fun i -> n + i) in
      Alcotest.(check (array int))
        (Printf.sprintf "sweep of %d" n)
        (Array.map (fun x -> x * 3) input)
        (map
           (fun x ->
             Parallel.Counter.incr hits;
             x * 3)
           input))
    sizes;
  check_int "bumps over all sweeps" (List.fold_left ( + ) 0 sizes)
    (Parallel.Counter.get hits - before)

let test_sequential_pool_inline () =
  (* one domain spawns nothing: every item runs on the caller *)
  let caller = Domain.self () in
  let ran_on = Parallel.Pool.map ~domains:1 (fun _ -> Domain.self ()) (Array.init 50 Fun.id) in
  Alcotest.(check bool) "all items on the calling domain" true
    (Array.for_all (fun d -> d = caller) ran_on)

let test_map_rejects_nonpositive () =
  (* rejected even where it would otherwise run inline *)
  match Parallel.Pool.map ~domains:0 succ [| 1 |] with
  | _ -> Alcotest.fail "domains:0 accepted"
  | exception Invalid_argument _ -> ()

(* --- the seeded Monte Carlo draw ---------------------------------------- *)

let fig1 = Wan.Generators.fig1 ()

let fig1_paths () =
  Netpath.Path_set.compute ~n_primary:2 ~n_backup:0 fig1 [ (1, 3); (2, 3) ]

let fig1_setup () =
  (fig1, fig1_paths (), Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ])

let africa_setup () =
  let topo = Wan.Generators.africa_like ~seed:5 ~n:8 () in
  let pairs = [ (0, 5); (1, 6) ] in
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 topo pairs in
  let d = Traffic.Demand.of_list (List.map (fun p -> (p, 60.)) pairs) in
  (topo, paths, d)

let draw ~seed ~samples (topo, paths, d) =
  snd (Te.Monte_carlo.sample_degradations ~seed ~samples topo paths d)

let scenario_string s =
  String.concat ";"
    (List.map (fun (e, i) -> Printf.sprintf "%d.%d" e i) (Failure.Scenario.links s))

let digest runs =
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          (List.map (fun r -> String.concat "," (Array.to_list (Array.map scenario_string r))) runs)))

(* Samples come in 64-sample blocks, each from its own RNG seeded
   [| seed; block |]. The scenarios of these runs match the digests
   recorded when the sweep still ran on a pool, so no sampled scenario
   has moved. 200 samples span four blocks, 150 three. *)
let test_mc_draw_pinned_fig1 () =
  Alcotest.(check string) "fig1 scenario digest" "8753c7c333aeabae5881694d8a15373c"
    (digest (List.map (fun seed -> draw ~seed ~samples:200 (fig1_setup ())) [ 1; 2; 3 ]))

let test_mc_draw_pinned_africa () =
  Alcotest.(check string) "africa scenario digest" "fbfb02de841f3bcd94ab62490d0755c3"
    (digest (List.map (fun seed -> draw ~seed ~samples:150 (africa_setup ())) [ 1; 7 ]))

(* a longer run extends a shorter one block by block *)
let test_mc_blocks_extend () =
  let long = draw ~seed:2 ~samples:200 (fig1_setup ()) in
  List.iter
    (fun samples ->
      Alcotest.(check (array string))
        (Printf.sprintf "a %d-sample run is a prefix of a 200-sample run" samples)
        (Array.map scenario_string (draw ~seed:2 ~samples (fig1_setup ())))
        (Array.map scenario_string (Array.sub long 0 samples)))
    [ 64; 100 ]

(* --- the unclustered analysis ignores the domain count ------------------- *)

let fig1_envelope () =
  Traffic.Envelope.around ~slack:0.5
    (Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ])

let spec_k1 =
  {
    Raha.Bilevel.default_spec with
    Raha.Bilevel.max_failures = Some 1;
    encoding = Raha.Bilevel.Strong_duality { levels = 5 };
  }

let check_bits what a b =
  if Int64.bits_of_float a <> Int64.bits_of_float b then
    Alcotest.failf "%s: %.17g <> %.17g (not bit-identical)" what a b

let check_analysis_identical ~what (seq : Raha.Analysis.report) (par : Raha.Analysis.report) =
  let tag fmt = Printf.sprintf "%s %s" what fmt in
  Alcotest.(check bool) (tag "status") true (par.Raha.Analysis.status = seq.Raha.Analysis.status);
  check_bits (tag "degradation") seq.Raha.Analysis.degradation par.Raha.Analysis.degradation;
  check_bits (tag "bound") seq.Raha.Analysis.bound par.Raha.Analysis.bound;
  check_int (tag "nodes") seq.Raha.Analysis.nodes par.Raha.Analysis.nodes;
  Alcotest.(check bool) (tag "scenario") true
    (Failure.Scenario.equal seq.Raha.Analysis.scenario par.Raha.Analysis.scenario);
  Alcotest.(check bool) (tag "worst demand") true
    (Traffic.Demand.entries seq.Raha.Analysis.worst_demand
    = Traffic.Demand.entries par.Raha.Analysis.worst_demand)

let analysis_across_domains ~spec envelope =
  let topo, paths, _ = fig1_setup () in
  let run domains =
    let options = { Raha.Analysis.default_options with spec; domains } in
    Raha.Analysis.analyze ~options topo paths envelope
  in
  let seq = run 1 in
  Alcotest.(check bool) "sequential run solved" true
    (seq.Raha.Analysis.status = Milp.Solver.Optimal);
  List.iter
    (fun d -> check_analysis_identical ~what:(Printf.sprintf "domains=%d" d) seq (run d))
    [ 2; 4 ]

(* the default encoding under a fixed demand *)
let test_analysis_equivalence () =
  let _, _, d = fig1_setup () in
  analysis_across_domains
    ~spec:{ Raha.Bilevel.default_spec with Raha.Bilevel.max_failures = Some 1 }
    (Traffic.Envelope.fixed d)

(* five-level strong duality under a demand envelope *)
let test_bilevel_analysis_identical () =
  analysis_across_domains ~spec:spec_k1 (fig1_envelope ())

(* A counter scope sees all the work of an unclustered analysis at any
   domain count: its bb-nodes delta is the report's node count, and the
   scope deltas do not depend on [domains]. *)
let test_analysis_scope_counters () =
  let topo = Wan.Generators.africa_like ~seed:5 ~n:8 () in
  let pairs = [ (0, 5); (1, 6); (2, 7) ] in
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 topo pairs in
  let envelope =
    Traffic.Envelope.from_zero ~slack:0.2
      (Traffic.Demand.of_list (List.map (fun p -> (p, 60.)) pairs))
  in
  let spec =
    {
      Raha.Bilevel.default_spec with
      Raha.Bilevel.threshold = Some 1e-4;
      max_failures = Some 2;
      encoding = Raha.Bilevel.Strong_duality { levels = 3 };
    }
  in
  let run domains =
    let options = { Raha.Analysis.default_options with spec; domains } in
    let scope = Milp.Lp_stats.scope_enter () in
    let r = Raha.Analysis.analyze ~options topo paths envelope in
    (r, (Milp.Lp_stats.scope_exit scope).Milp.Lp_stats.scope_counters)
  in
  let seq, seq_counters = run 1 in
  let par, par_counters = run domains in
  check_int "domains 1: scope bb-nodes = report nodes" seq.Raha.Analysis.nodes
    (List.assoc "bb-nodes" seq_counters);
  check_int
    (Printf.sprintf "domains %d: scope bb-nodes = report nodes" domains)
    par.Raha.Analysis.nodes
    (List.assoc "bb-nodes" par_counters);
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "scope deltas, domains 1 vs %d" domains)
    seq_counters par_counters

(* --- cluster waves ------------------------------------------------------ *)

let test_wave_budget () =
  let check_budget what expected got = Alcotest.(check (float 0.)) what expected got in
  check_budget "even split" 20. (Raha.Cluster.wave_budget ~remaining:100. ~solves_left:5);
  (* a fast early wave leaves its unused share to the remaining solves *)
  check_budget "redistribution" 30. (Raha.Cluster.wave_budget ~remaining:90. ~solves_left:3);
  check_budget "infinity passes through" Float.infinity
    (Raha.Cluster.wave_budget ~remaining:Float.infinity ~solves_left:4);
  check_budget "clamps at zero" 0. (Raha.Cluster.wave_budget ~remaining:(-1.) ~solves_left:2);
  check_budget "last solve takes everything" 7.5
    (Raha.Cluster.wave_budget ~remaining:7.5 ~solves_left:1);
  check_budget "solves_left floor" 7.5
    (Raha.Cluster.wave_budget ~remaining:7.5 ~solves_left:0)

(* africa_setup at 2 clusters gives 3 blocks over 2 waves, so one wave
   runs two blocks at once *)
let africa_cluster_spec =
  {
    Raha.Bilevel.default_spec with
    Raha.Bilevel.threshold = Some 1e-4;
    max_failures = Some 2;
    encoding = Raha.Bilevel.Strong_duality { levels = 3 };
  }

let test_cluster_identical_across_domains () =
  let topo, paths, d = africa_setup () in
  let envelope = Traffic.Envelope.from_zero ~slack:0.2 d in
  let run domains =
    let options = { Raha.Analysis.default_options with spec = africa_cluster_spec; domains } in
    Raha.Cluster.analyze ~options ~clusters:2 topo paths envelope
  in
  let seq = run 1 in
  Alcotest.(check bool) "sequential run solved" true
    (seq.Raha.Cluster.report.Raha.Analysis.status = Milp.Solver.Optimal);
  Alcotest.(check bool) "some wave solves two blocks" true
    (seq.Raha.Cluster.block_solves > List.length seq.Raha.Cluster.wave_budgets);
  List.iter
    (fun domains ->
      let par = run domains in
      let tag fmt = Printf.sprintf "domains=%d %s" domains fmt in
      check_bits (tag "degradation")
        seq.Raha.Cluster.report.Raha.Analysis.degradation
        par.Raha.Cluster.report.Raha.Analysis.degradation;
      check_int (tag "block solves") seq.Raha.Cluster.block_solves
        par.Raha.Cluster.block_solves;
      Alcotest.(check bool) (tag "assembled demand") true
        (Traffic.Demand.entries seq.Raha.Cluster.demand
        = Traffic.Demand.entries par.Raha.Cluster.demand);
      check_int (tag "wave count")
        (List.length seq.Raha.Cluster.wave_budgets)
        (List.length par.Raha.Cluster.wave_budgets))
    [ 2; 4 ]

(* Budgets come from one wall-clock deadline, [T] seconds after the
   call starts, so a call that took [W] seconds shares out between
   [T - W] and [T] seconds. *)
let timed_cluster ~options ~clusters topo paths envelope =
  let t0 = Unix.gettimeofday () in
  let r = Raha.Cluster.analyze ~options ~clusters topo paths envelope in
  (r, Unix.gettimeofday () -. t0)

let test_cluster_first_wave_budget () =
  let t = 100_000. in
  let options = { Raha.Analysis.default_options with spec = spec_k1; time_limit = t } in
  let r, w =
    timed_cluster ~options ~clusters:2 fig1 (fig1_paths ()) (fig1_envelope ())
  in
  match r.Raha.Cluster.wave_budgets with
  | [] -> Alcotest.fail "no wave budgets recorded"
  | first :: _ ->
    let n = float_of_int r.Raha.Cluster.block_solves in
    if not ((t -. w) /. n <= first && first <= t /. n) then
      Alcotest.failf "first wave budget %.17g outside [(T - W) / n, T / n] = [%.17g, %.17g]"
        first ((t -. w) /. n) (t /. n)

(* On africa_setup's two-block wave the final solve still gets all the
   time left, at least [T - W]: the wave is charged its wall time, not
   the sum of its two solves. Every planned block runs. *)
let test_cluster_deadline () =
  let topo, paths, d = africa_setup () in
  let envelope = Traffic.Envelope.from_zero ~slack:0.2 d in
  let t = 100_000. in
  let assign = Raha.Cluster.partition topo ~clusters:2 in
  let planned =
    List.sort_uniq compare
      (List.map (fun (s, d) -> (assign.(s), assign.(d))) (Traffic.Envelope.pairs envelope))
  in
  List.iter
    (fun domains ->
      let options =
        { Raha.Analysis.default_options with spec = africa_cluster_spec; domains; time_limit = t }
      in
      let r, w = timed_cluster ~options ~clusters:2 topo paths envelope in
      check_int
        (Printf.sprintf "domains=%d block solves = 1 + planned blocks" domains)
        (1 + List.length planned) r.Raha.Cluster.block_solves;
      let final = List.hd (List.rev r.Raha.Cluster.wave_budgets) in
      if not (final >= t -. w && final < t) then
        Alcotest.failf "domains=%d: final budget %.17g outside [T - W, T) = [%.17g, %.17g)"
          domains final (t -. w) t)
    [ 1; 2 ]

(* A counter scope sees all the work of a clustered analysis at any
   domain count: the map credits what worker domains did back to the
   caller, so the scope deltas of a parallel run equal the
   sequential ones. *)
let test_cluster_scope_counters () =
  let topo, paths, d = africa_setup () in
  let envelope = Traffic.Envelope.from_zero ~slack:0.2 d in
  let run domains =
    let options = { Raha.Analysis.default_options with spec = africa_cluster_spec; domains } in
    let scope = Milp.Lp_stats.scope_enter () in
    let r = Raha.Cluster.analyze ~options ~clusters:2 topo paths envelope in
    (r, (Milp.Lp_stats.scope_exit scope).Milp.Lp_stats.scope_counters)
  in
  let seq, seq_counters = run 1 in
  let _, par_counters = run domains in
  (* a wave with two blocks is what the map runs concurrently *)
  Alcotest.(check bool) "some wave solves two blocks" true
    (seq.Raha.Cluster.block_solves > List.length seq.Raha.Cluster.wave_budgets);
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "scope deltas, domains 1 vs %d" domains)
    seq_counters par_counters

let suite =
  [
    ("pool: empty input", `Quick, test_empty_input);
    ("pool: single item", `Quick, test_single_item);
    ("pool: more domains than items", `Quick, test_more_domains_than_items);
    ("pool: order preserved", `Quick, test_order_preserved);
    ("pool: each item evaluated once", `Quick, test_each_item_once);
    ("pool: exception propagation", `Quick, test_exception_propagation);
    ("pool: failure skips unclaimed items", `Quick, test_failure_skips_unclaimed);
    ("pool: nested map same pool", `Quick, test_nested_map_same_pool);
    ("pool: nested map other pool", `Quick, test_nested_map_other_pool);
    ("pool: nested sequential pool ok", `Quick, test_nested_sequential_pool_ok);
    ("pool: pool inside a task is sequential", `Quick, test_pool_in_task_is_sequential);
    ("pool: worker counters credited once", `Quick, test_counters_credited);
    ("pool: counters accumulate across sweeps", `Quick, test_counters_accumulate);
    ("pool: sequential pool runs inline", `Quick, test_sequential_pool_inline);
    ("pool: map rejects domains < 1", `Quick, test_map_rejects_nonpositive);
    ("monte carlo draw pinned (fig1)", `Quick, test_mc_draw_pinned_fig1);
    ("monte carlo draw pinned (africa)", `Quick, test_mc_draw_pinned_africa);
    ("monte carlo blocks extend", `Quick, test_mc_blocks_extend);
    ("analysis equivalence", `Quick, test_analysis_equivalence);
    ("bilevel analysis identical across domains", `Quick, test_bilevel_analysis_identical);
    ("analysis scope sees all work", `Quick, test_analysis_scope_counters);
    ("wave budget redistribution", `Quick, test_wave_budget);
    ("cluster identical across domains", `Quick, test_cluster_identical_across_domains);
    ("cluster first wave budget", `Quick, test_cluster_first_wave_budget);
    ("cluster budgets from one deadline", `Quick, test_cluster_deadline);
    ("cluster scope sees pool work", `Quick, test_cluster_scope_counters);
  ]
