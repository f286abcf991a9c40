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

let test_map_reduce () =
  let input = Array.init 500 (fun i -> i + 1) in
  let expected = Array.fold_left (fun acc x -> acc + (x * x)) 0 input in
  Parallel.Pool.with_pool ~domains (fun pool ->
      check_int "sum of squares" expected
        (Parallel.Pool.map_reduce pool ~map:(fun x -> x * x)
           ~combine:( + ) ~init:0 input));
  (* order-sensitive combine: reduction folds in index order *)
  Parallel.Pool.with_pool ~domains (fun pool ->
      Alcotest.(check string) "ordered fold" "abcdef"
        (Parallel.Pool.map_reduce pool ~map:Fun.id ~combine:( ^ ) ~init:""
           [| "a"; "b"; "c"; "d"; "e"; "f" |]))

(* counter hooks read on the executing domain, so like the simplex pivot
   counter they must be domain-local for the per-chunk deltas to add up *)
let hits_key = Domain.DLS.new_key (fun () -> ref 0)

let test_stats () =
  Parallel.Pool.with_pool
    ~counters:[ ("hits", fun () -> !(Domain.DLS.get hits_key)) ]
    ~domains
    (fun pool ->
      Parallel.Pool.iter_array pool
        (fun _ -> incr (Domain.DLS.get hits_key))
        (Array.init 64 Fun.id);
      let s = Parallel.Pool.stats pool in
      check_int "domains" domains s.Parallel.Pool.domains;
      check_int "items" 64 s.Parallel.Pool.items;
      Alcotest.(check bool) "some tasks ran" true (s.Parallel.Pool.tasks >= 1);
      Alcotest.(check (list (pair string int))) "counter delta" [ ("hits", 64) ]
        s.Parallel.Pool.counters;
      let line = Format.asprintf "%a" Parallel.Pool.pp_stats s in
      Alcotest.(check bool) ("stats line: " ^ line) true
        (String.length line > 10 && String.sub line 0 10 = "[parallel:");
      Parallel.Pool.reset_stats pool;
      check_int "reset" 0 (Parallel.Pool.stats pool).Parallel.Pool.items)

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
        Parallel.Pool.with_pool ~counters:Milp.Solver.stats_counters ~domains (fun pool ->
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
  (* a caller-supplied pool without counter hooks gives the same draw *)
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
    Parallel.Pool.with_pool ~counters:Milp.Solver.stats_counters ~domains (fun pool ->
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
    ("pool: map_reduce", `Quick, test_map_reduce);
    ("pool: stats and counters", `Quick, test_stats);
    ("pool: create rejects domains < 1", `Quick, test_create_rejects_nonpositive);
    ("monte carlo equivalence (fig1)", `Quick, test_mc_equivalence_fig1);
    ("monte carlo equivalence (africa)", `Quick, test_mc_equivalence_africa);
    ("monte carlo equivalence (shared pool)", `Quick, test_mc_shared_pool_equivalence);
    ("enumeration equivalence", `Quick, test_enumeration_equivalence);
    ("analysis equivalence", `Quick, test_analysis_equivalence);
  ]
