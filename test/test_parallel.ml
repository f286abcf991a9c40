(* The Domain worker pool, and the determinism contract of the parallel
   sweeps: for a fixed seed, results must be bit-identical whatever the
   domain count. The parallel side runs on [RAHA_TEST_DOMAINS] domains
   (default 4) — the CI alias pins it to 2 so both widths get exercised. *)

let domains =
  match Sys.getenv_opt "RAHA_TEST_DOMAINS" with
  | Some s -> ( match int_of_string_opt s with Some d when d >= 2 -> d | _ -> 4)
  | None -> 4

let check_int = Alcotest.(check int)

(* --- pool units --------------------------------------------------------- *)

let test_empty_input () =
  Parallel.Pool.with_pool ~domains (fun pool ->
      check_int "map of empty" 0 (Array.length (Parallel.Pool.map_array pool succ [||]));
      Parallel.Pool.iter_array pool (fun _ -> Alcotest.fail "called on empty") [||];
      let s = Parallel.Pool.stats pool in
      check_int "no items recorded" 0 s.Parallel.Pool.items)

let test_single_item () =
  Parallel.Pool.with_pool ~domains (fun pool ->
      Alcotest.(check (array int)) "one item" [| 42 |]
        (Parallel.Pool.map_array pool (fun x -> x * 2) [| 21 |]))

let test_more_domains_than_items () =
  Parallel.Pool.with_pool ~domains:8 (fun pool ->
      Alcotest.(check (array int)) "three items, eight domains" [| 1; 4; 9 |]
        (Parallel.Pool.map_array pool (fun x -> x * x) [| 1; 2; 3 |]))

let test_order_preserved () =
  let input = Array.init 1000 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) input in
  Parallel.Pool.with_pool ~domains (fun pool ->
      Alcotest.(check (array int)) "mapi order" expected
        (Parallel.Pool.mapi_array pool (fun i x -> ignore x; i * i) input))

exception Boom of int

let test_exception_propagation () =
  Parallel.Pool.with_pool ~domains (fun pool ->
      (match Parallel.Pool.iter_array pool
               (fun i -> if i = 17 then raise (Boom i))
               (Array.init 100 Fun.id)
       with
      | () -> Alcotest.fail "exception swallowed"
      | exception Boom 17 -> ()
      | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e));
      (* the pool survives a failed sweep *)
      Alcotest.(check (array int)) "pool still usable" [| 2; 4 |]
        (Parallel.Pool.map_array pool (fun x -> 2 * x) [| 1; 2 |]))

let test_nested_map_same_pool () =
  (* re-entering the same pool from a task runs the inner sweep as an
     inline sequential sub-scope — same results, no deadlock *)
  Parallel.Pool.with_pool ~domains (fun pool ->
      let r =
        Parallel.Pool.map_array pool
          (fun x ->
            Array.fold_left ( + ) 0 (Parallel.Pool.map_array pool succ [| x; x |]))
          (Array.init 64 Fun.id)
      in
      Alcotest.(check (array int)) "nested same-pool map"
        (Array.init 64 (fun x -> 2 * (x + 1)))
        r)

let test_nested_map_other_pool () =
  (* both nesting directions across two parallel pools: the outer sweep
     owns the fan-out, the inner call degrades to sequential *)
  Parallel.Pool.with_pool ~domains (fun outer ->
      Parallel.Pool.with_pool ~domains (fun inner ->
          (* Alcotest checks are not domain-safe: record inside_task in
             the task, check it back on the calling domain *)
          let r =
            Parallel.Pool.map_array outer
              (fun x ->
                ( Parallel.Pool.inside_task (),
                  Array.fold_left ( + ) 0
                    (Parallel.Pool.map_array inner (fun y -> y * y) [| x; x + 1 |]) ))
              (Array.init 48 Fun.id)
          in
          Alcotest.(check (array bool)) "inside task" (Array.make 48 true) (Array.map fst r);
          Alcotest.(check (array int)) "outer-calls-inner"
            (Array.init 48 (fun x -> (x * x) + ((x + 1) * (x + 1))))
            (Array.map snd r);
          (* and the reverse direction on the same two pools *)
          let r' =
            Parallel.Pool.map_array inner
              (fun x ->
                Array.fold_left ( + ) 0
                  (Parallel.Pool.map_array outer (fun y -> y * y) [| x; x + 1 |]))
              (Array.init 48 Fun.id)
          in
          Alcotest.(check (array int)) "inner-calls-outer"
            (Array.init 48 (fun x -> (x * x) + ((x + 1) * (x + 1))))
            r';
          (* nested work, element 0 included, is not recorded as tasks *)
          check_int "inner pool: only its own sweep recorded" 48
            (Parallel.Pool.stats inner).Parallel.Pool.items;
          check_int "outer pool: only its own sweep recorded" 48
            (Parallel.Pool.stats outer).Parallel.Pool.items;
          Alcotest.(check bool) "outside task" false (Parallel.Pool.inside_task ())))

let test_nested_sequential_pool_ok () =
  (* a [domains:1] pool runs inline and is legal anywhere, including
     inside a task of a parallel pool *)
  Parallel.Pool.with_pool ~domains:1 (fun inner ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          let r =
            Parallel.Pool.map_array pool
              (fun x ->
                Array.fold_left ( + ) 0 (Parallel.Pool.map_array inner succ [| x; x |]))
              [| 1; 2; 3 |]
          in
          Alcotest.(check (array int)) "inline inner pool" [| 4; 6; 8 |] r))

(* a registered counter bumped by every item, wherever it runs *)
let hits = Parallel.Counter.make "test-hits"

let test_stats () =
  Parallel.Pool.with_pool ~domains (fun pool ->
      (* each item sleeps so the workers claim chunks too; sweeps repeat
         until one did, and every sweep must credit each bump to the
         submitter exactly once *)
      let caller = Domain.self () in
      let rec sweep k off_caller =
        let before = Parallel.Counter.get hits in
        let ran_on =
          Parallel.Pool.map_array pool
            (fun _ ->
              Unix.sleepf 0.0005;
              Parallel.Counter.incr hits;
              Domain.self ())
            (Array.init 64 Fun.id)
        in
        check_int (Printf.sprintf "sweep %d: credited once" k) 64
          (Parallel.Counter.get hits - before);
        let off_caller = off_caller || Array.exists (fun d -> d <> caller) ran_on in
        if off_caller || k = 20 then off_caller else sweep (k + 1) off_caller
      in
      Alcotest.(check bool) "a worker domain ran items" true (sweep 1 false);
      let s = Parallel.Pool.stats pool in
      check_int "domains" domains s.Parallel.Pool.domains;
      Alcotest.(check bool) "items" true (s.Parallel.Pool.items mod 64 = 0);
      Alcotest.(check bool) "some tasks ran" true (s.Parallel.Pool.tasks >= 1);
      let line = Format.asprintf "%a" Parallel.Pool.pp_stats s in
      Alcotest.(check bool) ("stats line: " ^ line) true
        (String.length line > 10 && String.sub line 0 10 = "[parallel:"))

let test_pool_in_task_is_sequential () =
  (* a pool created inside a task gets one domain and no workers *)
  Parallel.Pool.with_pool ~domains (fun pool ->
      let widths =
        Parallel.Pool.map_array pool
          (fun _ -> Parallel.Pool.with_pool ~domains Parallel.Pool.domains)
          (Array.init 8 Fun.id)
      in
      Alcotest.(check (array int)) "nested pools" (Array.make 8 1) widths);
  Parallel.Pool.with_pool ~domains (fun pool ->
      check_int "outside a task" domains (Parallel.Pool.domains pool))

let test_stats_accumulate () =
  (* one pool serves many sweeps: items add up across them and every
     sweep's results are still position-stable *)
  Parallel.Pool.with_pool ~domains (fun pool ->
      let sizes = [ 1; 7; 64; 0; 300 ] in
      List.iter
        (fun n ->
          let input = Array.init n (fun i -> n + i) in
          Alcotest.(check (array int))
            (Printf.sprintf "sweep of %d" n)
            (Array.map (fun x -> x * 3) input)
            (Parallel.Pool.map_array pool (fun x -> x * 3) input))
        sizes;
      let s = Parallel.Pool.stats pool in
      check_int "items over all sweeps" (List.fold_left ( + ) 0 sizes) s.Parallel.Pool.items;
      Alcotest.(check bool) "at least one task per non-empty sweep" true
        (s.Parallel.Pool.tasks >= 4))

let test_sequential_pool_inline () =
  (* a one-domain pool spawns no workers: every item runs on the caller *)
  let caller = Domain.self () in
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      check_int "domains" 1 (Parallel.Pool.domains pool);
      let ran_on =
        Parallel.Pool.map_array pool (fun _ -> Domain.self ()) (Array.init 50 Fun.id)
      in
      Alcotest.(check bool) "all items on the calling domain" true
        (Array.for_all (fun d -> d = caller) ran_on))

let test_with_pool_reraises () =
  (* an exception from the body escapes with_pool unchanged, and the
     caller is not left marked as inside a task *)
  (match
     Parallel.Pool.with_pool ~domains (fun pool ->
         ignore (Parallel.Pool.map_array pool succ [| 1; 2; 3 |]);
         raise (Boom 3))
   with
  | () -> Alcotest.fail "exception swallowed"
  | exception Boom 3 -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e));
  Alcotest.(check bool) "not inside a task" false (Parallel.Pool.inside_task ());
  Parallel.Pool.with_pool ~domains (fun pool ->
      Alcotest.(check (array int)) "a fresh pool works" [| 2; 3 |]
        (Parallel.Pool.map_array pool succ [| 1; 2 |]))

let test_create_rejects_nonpositive () =
  match Parallel.Pool.create ~domains:0 () with
  | _ -> Alcotest.fail "domains:0 accepted"
  | exception Invalid_argument _ -> ()

(* --- sequential-vs-parallel equivalence --------------------------------- *)

let fig1 = Wan.Generators.fig1 ()

let fig1_setup () =
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:0 fig1 [ (1, 3); (2, 3) ] in
  let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  (fig1, paths, d)

let africa_setup () =
  let topo = Wan.Generators.africa_like ~seed:5 ~n:8 () in
  let pairs = [ (0, 5); (1, 6) ] in
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 topo pairs in
  let d = Traffic.Demand.of_list (List.map (fun p -> (p, 60.)) pairs) in
  (topo, paths, d)

let check_identical_runs ~seeds ~samples (topo, paths, d) () =
  List.iter
    (fun seed ->
      let seq_deg, seq_scen = Te.Monte_carlo.sample_degradations ~seed ~samples topo paths d in
      let par_deg, par_scen =
        Parallel.Pool.with_pool ~domains (fun pool ->
            Te.Monte_carlo.sample_degradations ~pool ~seed ~samples topo paths d)
      in
      Alcotest.(check bool)
        (Printf.sprintf "degradations bit-identical (seed %d, %d vs 1 domains)" seed domains)
        true (seq_deg = par_deg);
      check_int "scenario count" (Array.length seq_scen) (Array.length par_scen);
      Alcotest.(check bool)
        (Printf.sprintf "scenarios identical (seed %d)" seed)
        true
        (Array.for_all2 Failure.Scenario.equal seq_scen par_scen))
    seeds

let test_mc_equivalence_fig1 () =
  (* 200 samples spans four 64-sample RNG blocks, so chunking kicks in *)
  check_identical_runs ~seeds:[ 1; 2; 3 ] ~samples:200 (fig1_setup ()) ()

let test_mc_equivalence_africa () =
  check_identical_runs ~seeds:[ 1; 7 ] ~samples:150 (africa_setup ()) ()

let test_mc_shared_pool_equivalence () =
  (* a caller-supplied pool gives the same draw *)
  let topo, paths, d = fig1_setup () in
  let seq, _ = Te.Monte_carlo.sample_degradations ~seed:9 ~samples:200 topo paths d in
  Parallel.Pool.with_pool ~domains (fun pool ->
      let par, _ =
        Te.Monte_carlo.sample_degradations ~pool ~seed:9 ~samples:200 topo paths d
      in
      Alcotest.(check bool) "pool draw identical" true (seq = par))

let test_enumeration_equivalence () =
  let topo, paths, d = fig1_setup () in
  let seq = Raha.Baselines.enumerate_failures ~k:2 topo paths d in
  let par =
    Parallel.Pool.with_pool ~domains (fun pool ->
        Raha.Baselines.enumerate_failures ~pool ~k:2 topo paths d)
  in
  check_int "scenarios evaluated"
    seq.Raha.Baselines.scenarios_evaluated par.Raha.Baselines.scenarios_evaluated;
  Alcotest.(check (float 0.)) "worst degradation identical"
    seq.Raha.Baselines.worst par.Raha.Baselines.worst;
  Alcotest.(check bool) "same arg-max scenario" true
    (Failure.Scenario.equal seq.Raha.Baselines.worst_scenario
       par.Raha.Baselines.worst_scenario)

let test_analysis_equivalence () =
  let topo, paths, d = fig1_setup () in
  let run domains =
    let spec = { Raha.Bilevel.default_spec with Raha.Bilevel.max_failures = Some 1 } in
    let options = { Raha.Analysis.default_options with spec; domains } in
    Raha.Analysis.analyze ~options topo paths (Traffic.Envelope.fixed d)
  in
  let seq = run 1 and par = run domains in
  Alcotest.(check (float 0.)) "degradation identical"
    seq.Raha.Analysis.degradation par.Raha.Analysis.degradation;
  Alcotest.(check bool) "same scenario" true
    (Failure.Scenario.equal seq.Raha.Analysis.scenario par.Raha.Analysis.scenario)

(* A counter scope sees all the work of a call at any domain count: the
   pool credits what worker domains did back to the submitter, so the
   scope deltas of a parallel analysis equal the sequential ones and its
   bb-nodes delta is the report's node count. *)
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
    let options =
      { Raha.Analysis.default_options with spec; domains; bb_width = 2; bb_grain = 4 }
    in
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

let suite =
  [
    ("pool: empty input", `Quick, test_empty_input);
    ("pool: single item", `Quick, test_single_item);
    ("pool: more domains than items", `Quick, test_more_domains_than_items);
    ("pool: order preserved", `Quick, test_order_preserved);
    ("pool: exception propagation", `Quick, test_exception_propagation);
    ("pool: nested map same pool", `Quick, test_nested_map_same_pool);
    ("pool: nested map other pool", `Quick, test_nested_map_other_pool);
    ("pool: nested sequential pool ok", `Quick, test_nested_sequential_pool_ok);
    ("pool: stats and counters", `Quick, test_stats);
    ("pool: pool inside a task is sequential", `Quick, test_pool_in_task_is_sequential);
    ("pool: stats accumulate across sweeps", `Quick, test_stats_accumulate);
    ("pool: sequential pool runs inline", `Quick, test_sequential_pool_inline);
    ("pool: with_pool re-raises", `Quick, test_with_pool_reraises);
    ("pool: create rejects domains < 1", `Quick, test_create_rejects_nonpositive);
    ("monte carlo equivalence (fig1)", `Quick, test_mc_equivalence_fig1);
    ("monte carlo equivalence (africa)", `Quick, test_mc_equivalence_africa);
    ("monte carlo equivalence (shared pool)", `Quick, test_mc_shared_pool_equivalence);
    ("enumeration equivalence", `Quick, test_enumeration_equivalence);
    ("analysis equivalence", `Quick, test_analysis_equivalence);
    ("analysis scope sees pool work", `Quick, test_analysis_scope_counters);
  ]
