(* Scenario, probability, renewal-reward, trace and enumeration tests. *)

let check_int = Alcotest.(check int)
let check_float ?(eps = 1e-9) what expected got =
  Alcotest.(check (float eps)) what expected got

let fig1 = Wan.Generators.fig1 ()

let test_scenario_basics () =
  let s = Failure.Scenario.of_links fig1 [ (0, 0); (2, 0) ] in
  check_int "failed" 2 (Failure.Scenario.num_failed s);
  Alcotest.(check bool) "down" true (Failure.Scenario.is_down s ~lag:0 ~link:0);
  Alcotest.(check bool) "up" false (Failure.Scenario.is_down s ~lag:1 ~link:0);
  check_float "capacity of failed lag" 0. (Failure.Scenario.lag_capacity fig1 s 0);
  check_float "capacity of live lag" 8. (Failure.Scenario.lag_capacity fig1 s 1);
  Alcotest.(check bool) "lag down" true (Failure.Scenario.lag_down fig1 s 0);
  Alcotest.(check bool) "path down" true (Failure.Scenario.path_down fig1 s [ 1; 2 ]);
  Alcotest.(check bool) "path up" false (Failure.Scenario.path_down fig1 s [ 1; 4 ])

let test_scenario_partial_lag () =
  (* a two-link LAG with one failed link is degraded but not down *)
  let t =
    Wan.Topology.create ~name:"t" ~num_nodes:2
      [ Wan.Lag.uniform ~id:0 ~src:0 ~dst:1 ~n:2 ~capacity:5. ~fail_prob:0.1 ]
  in
  let s = Failure.Scenario.of_links t [ (0, 0) ] in
  check_float "half capacity" 5. (Failure.Scenario.lag_capacity t s 0);
  Alcotest.(check bool) "not down" false (Failure.Scenario.lag_down t s 0);
  let s2 = Failure.Scenario.of_links t [ (0, 0); (0, 1) ] in
  Alcotest.(check bool) "down" true (Failure.Scenario.lag_down t s2 0)

let test_scenario_prob () =
  (* fig1: all links have fail_prob 0.01 *)
  let s0 = Failure.Scenario.empty in
  check_float ~eps:1e-12 "all up" (Float.pow 0.99 5.) (Failure.Scenario.prob fig1 s0);
  let s1 = Failure.Scenario.of_links fig1 [ (0, 0) ] in
  check_float ~eps:1e-12 "one down" (0.01 *. Float.pow 0.99 4.)
    (Failure.Scenario.prob fig1 s1)

let test_max_simultaneous () =
  let n, s = Failure.Probability.max_simultaneous_failures fig1 ~threshold:1e-6 in
  (* each failure costs about log10(0.01/0.99) ~ -2; base ~ -0.02;
     threshold 1e-6 -> 3 failures fit (10^-6 vs p = 1e-6 * ...) *)
  check_int "count vs scenario" n (Failure.Scenario.num_failed s);
  Alcotest.(check bool) "scenario above threshold" true
    (Failure.Scenario.prob fig1 s >= 1e-6);
  (* monotone in the threshold *)
  let n2, _ = Failure.Probability.max_simultaneous_failures fig1 ~threshold:1e-10 in
  Alcotest.(check bool) "monotone" true (n2 >= n);
  let n3, _ = Failure.Probability.max_simultaneous_failures fig1 ~threshold:0.5 in
  check_int "strict threshold" 0 n3

let test_renewal_estimate () =
  (* link down during [2,3] and [5,7] over horizon 10: p = 3/10 *)
  let events =
    [ { Failure.Renewal.down_at = 2.; up_at = 3. }; { Failure.Renewal.down_at = 5.; up_at = 7. } ]
  in
  check_float "downtime fraction" 0.3 (Failure.Renewal.estimate ~horizon:10. events);
  (* clipping at the horizon *)
  check_float "clipped" 0.2 (Failure.Renewal.estimate ~horizon:5. events)

let test_renewal_validation () =
  let bad events =
    match Failure.Renewal.estimate ~horizon:10. events with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad [ { Failure.Renewal.down_at = 5.; up_at = 4. } ];
  bad
    [
      { Failure.Renewal.down_at = 2.; up_at = 6. };
      { Failure.Renewal.down_at = 5.; up_at = 7. };
    ]

let test_trace_estimation_converges () =
  (* true p = mttr / (mtbf + mttr) = 1 / (9 + 1) = 0.1 *)
  let events =
    Failure.Trace.exponential ~seed:11 ~mean_uptime:9. ~mean_downtime:1.
      ~horizon:20000. ()
  in
  let est = Failure.Renewal.estimate ~horizon:20000. events in
  Alcotest.(check bool)
    (Printf.sprintf "estimate %.3f within 20%% of 0.1" est)
    true
    (Float.abs (est -. 0.1) < 0.02)

let test_calibrate_topology () =
  let t = Wan.Generators.africa_like ~seed:2 ~n:8 () in
  let t' = Failure.Trace.calibrate_topology ~seed:5 ~horizon:50000. t in
  check_int "same lags" (Wan.Topology.num_lags t) (Wan.Topology.num_lags t');
  (* estimated probabilities should correlate with configured ones *)
  let pairs = ref [] in
  Array.iteri
    (fun e (lag : Wan.Lag.t) ->
      Array.iteri
        (fun i (l : Wan.Lag.link) ->
          let l' = (Wan.Topology.lag t' e).Wan.Lag.links.(i) in
          pairs := (l.Wan.Lag.fail_prob, l'.Wan.Lag.fail_prob) :: !pairs)
        lag.Wan.Lag.links)
    (Wan.Topology.lags t);
  let rel_errors =
    List.map (fun (a, b) -> Float.abs (a -. b) /. Float.max a 1e-9) !pairs
  in
  let mean = List.fold_left ( +. ) 0. rel_errors /. float_of_int (List.length rel_errors) in
  Alcotest.(check bool)
    (Printf.sprintf "mean relative error %.2f < 0.5" mean)
    true (mean < 0.5)

let test_enumerate_up_to_k () =
  (* fig1 has 5 links: 1 + 5 + 10 scenarios for k = 2 *)
  check_int "count" 16 (Failure.Enumerate.count_up_to_k fig1 ~k:2);
  let all = Failure.Enumerate.up_to_k fig1 ~k:2 in
  check_int "enumerated" 16 (List.length all);
  Alcotest.(check bool) "includes empty" true
    (List.exists (Failure.Scenario.equal Failure.Scenario.empty) all);
  (* distinct *)
  let sorted = List.sort_uniq compare (List.map Failure.Scenario.links all) in
  check_int "distinct" 16 (List.length sorted)

let test_lag_failures () =
  let t =
    Wan.Topology.create ~name:"t" ~num_nodes:3
      [
        Wan.Lag.uniform ~id:0 ~src:0 ~dst:1 ~n:2 ~capacity:5. ~fail_prob:0.1;
        Wan.Lag.uniform ~id:1 ~src:1 ~dst:2 ~n:3 ~capacity:5. ~fail_prob:0.1;
      ]
  in
  let ss = Failure.Enumerate.lag_failures_up_to_k t ~k:1 in
  (* empty, lag0 fully down, lag1 fully down *)
  check_int "count" 3 (List.length ss);
  Alcotest.(check bool) "lag0 scenario downs whole lag" true
    (List.exists (fun s -> Failure.Scenario.num_failed s = 2) ss);
  Alcotest.(check bool) "lag1 scenario downs whole lag" true
    (List.exists (fun s -> Failure.Scenario.num_failed s = 3) ss)

let test_srlg () =
  let g = Failure.Srlg.make ~name:"conduit" ~prob:0.05 [ (0, 0); (1, 0) ] in
  Failure.Srlg.validate fig1 g;
  match Failure.Srlg.make ~name:"x" ~prob:0.5 [ (0, 0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "singleton rejected"

let test_always_down_links () =
  (* A link with fail_prob = 1 used to make per_link_cost return +inf
     (log 1 - log1p(-1)), which poisoned the greedy running sum in
     max_simultaneous_failures with inf/nan. Always-down links are now
     mandatory members of every positive-probability scenario. *)
  let t =
    Wan.Topology.create ~name:"alwaysdown" ~num_nodes:3
      [
        Wan.Lag.uniform ~id:0 ~src:0 ~dst:1 ~n:1 ~capacity:10. ~fail_prob:1.0;
        Wan.Lag.uniform ~id:1 ~src:1 ~dst:2 ~n:2 ~capacity:10. ~fail_prob:0.01;
      ]
  in
  let costs = Failure.Probability.per_link_cost t in
  List.iter
    (fun ((lag, _), c) ->
      Alcotest.(check bool)
        (Printf.sprintf "cost of lag %d not nan" lag)
        false (Float.is_nan c);
      if lag = 0 then
        Alcotest.(check bool) "always-down cost is +inf" true (c = Float.infinity))
    costs;
  (* all-up has probability zero with an always-down link present *)
  Alcotest.(check bool) "all-up log prob -inf" true
    (Failure.Scenario.log_prob t Failure.Scenario.empty = Float.neg_infinity);
  let n, s = Failure.Probability.max_simultaneous_failures t ~threshold:1e-3 in
  Alcotest.(check bool) "down link is mandatory" true
    (Failure.Scenario.is_down s ~lag:0 ~link:0);
  check_int "count matches scenario" n (Failure.Scenario.num_failed s);
  Alcotest.(check bool) "count includes mandatory failure" true (n >= 1);
  Alcotest.(check bool) "scenario above threshold" true
    (Failure.Scenario.prob t s >= 1e-3)

let test_threshold_one_boundary () =
  (* threshold = 1.0 is the documented edge of the valid range *)
  let n, s = Failure.Probability.max_simultaneous_failures fig1 ~threshold:1.0 in
  check_int "no fig1 scenario has probability 1" 0 n;
  check_int "empty scenario" 0 (Failure.Scenario.num_failed s);
  (* with an always-down link and deterministic companions, the mandatory
     scenario itself has probability exactly 1 *)
  let t =
    Wan.Topology.create ~name:"det" ~num_nodes:3
      [
        Wan.Lag.uniform ~id:0 ~src:0 ~dst:1 ~n:1 ~capacity:10. ~fail_prob:1.0;
        Wan.Lag.uniform ~id:1 ~src:1 ~dst:2 ~n:1 ~capacity:10. ~fail_prob:0.0;
      ]
  in
  let n1, s1 = Failure.Probability.max_simultaneous_failures t ~threshold:1.0 in
  check_int "mandatory link counted" 1 n1;
  check_float "probability exactly 1" 1. (Failure.Scenario.prob t s1);
  (* out-of-range thresholds still rejected *)
  (match Failure.Probability.max_simultaneous_failures fig1 ~threshold:1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "threshold > 1 accepted");
  match Failure.Probability.max_simultaneous_failures fig1 ~threshold:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "threshold 0 accepted"

(* qcheck: greedy max_simultaneous_failures is consistent with enumeration
   on tiny topologies *)
let prop_greedy_matches_enumeration =
  QCheck2.Test.make ~name:"greedy max-failures matches enumeration" ~count:50
    QCheck2.Gen.(
      let* seed = int_range 0 1000 in
      let* thr_exp = int_range 1 8 in
      return (seed, thr_exp))
    (fun (seed, thr_exp) ->
      let rng = Random.State.make [| seed |] in
      (* ring of 4 with random per-link failure probabilities *)
      let lags =
        List.init 4 (fun id ->
            Wan.Lag.uniform ~id ~src:id ~dst:((id + 1) mod 4) ~n:1 ~capacity:10.
              ~fail_prob:(0.001 +. Random.State.float rng 0.3))
      in
      let t = Wan.Topology.create ~name:"q" ~num_nodes:4 lags in
      let threshold = Float.pow 10. (-.float_of_int thr_exp) in
      let greedy_n, _ = Failure.Probability.max_simultaneous_failures t ~threshold in
      let best =
        List.fold_left
          (fun acc s ->
            if Failure.Scenario.prob t s >= threshold then
              max acc (Failure.Scenario.num_failed s)
            else acc)
          0
          (Failure.Enumerate.up_to_k t ~k:4)
      in
      greedy_n = best)

let test_enumerate_guards () =
  (* count guard: a 30-link topology at k=5 exceeds the cap *)
  let t = Wan.Generators.africa_like ~seed:5 ~n:12 () in
  match Failure.Enumerate.up_to_k t ~k:5 with
  | exception Invalid_argument _ -> ()
  | l ->
    (* if it fits, the count helper must agree *)
    Alcotest.(check int) "count agrees" (Failure.Enumerate.count_up_to_k t ~k:5)
      (List.length l)

let test_enumerate_counting_properties () =
  (* up_to_k emits exactly count_up_to_k scenarios, all distinct, all
     within the failure budget — on fig1 and a generated WAN *)
  let topos =
    [ ("fig1", fig1); ("africa8", Wan.Generators.africa_like ~seed:5 ~n:8 ()) ]
  in
  List.iter
    (fun (name, t) ->
      for k = 0 to 3 do
        let label fmt = Printf.sprintf ("%s k=%d " ^^ fmt) name k in
        let l = Failure.Enumerate.up_to_k t ~k in
        check_int (label "count matches") (Failure.Enumerate.count_up_to_k t ~k)
          (List.length l);
        check_int (label "no duplicates") (List.length l)
          (List.length (List.sort_uniq compare (List.map Failure.Scenario.links l)));
        List.iter
          (fun s ->
            Alcotest.(check bool) (label "within budget") true
              (Failure.Scenario.num_failed s <= k))
          l;
        Alcotest.(check bool) (label "includes empty") true
          (List.exists (Failure.Scenario.equal Failure.Scenario.empty) l)
      done)
    topos

let test_binomial_matches_pascal () =
  (* float Pascal triangle is exact below 2^53, far above C(30, 15) *)
  let tbl = Array.make_matrix 31 31 0. in
  for n = 0 to 30 do
    tbl.(n).(0) <- 1.;
    for k = 1 to n do
      tbl.(n).(k) <- tbl.(n - 1).(k - 1) +. (if k <= n - 1 then tbl.(n - 1).(k) else 0.)
    done
  done;
  for n = 0 to 30 do
    for k = 0 to n do
      check_float ~eps:0.
        (Printf.sprintf "C(%d,%d)" n k)
        tbl.(n).(k)
        (float_of_int (Failure.Enumerate.binomial n k))
    done
  done;
  check_int "k < 0" 0 (Failure.Enumerate.binomial 5 (-1));
  check_int "k > n" 0 (Failure.Enumerate.binomial 5 6);
  check_int "C(0,0)" 1 (Failure.Enumerate.binomial 0 0)

let fold_outages events =
  List.fold_left
    (fun t (e : Failure.Renewal.event) ->
      Failure.Renewal.Incr.up
        (Failure.Renewal.Incr.down t ~at:e.Failure.Renewal.down_at)
        ~at:e.Failure.Renewal.up_at)
    Failure.Renewal.Incr.empty events

let test_incr_matches_batch_on_prefixes () =
  (* the streaming estimator must agree with the batch walk to the last
     float bit on EVERY prefix of a generated trace *)
  let events =
    Failure.Trace.exponential ~seed:23 ~mean_uptime:7. ~mean_downtime:2.
      ~horizon:500. ()
  in
  Alcotest.(check bool) "trace non-trivial" true (List.length events > 10);
  let check_prefix prefix =
    let incr = fold_outages prefix in
    let n = List.length prefix in
    check_int (Printf.sprintf "count prefix %d" n) n
      (Failure.Renewal.Incr.count incr);
    let horizon =
      match List.rev prefix with
      | [] -> 1.
      | last :: _ -> last.Failure.Renewal.up_at +. 0.5
    in
    check_float ~eps:0.
      (Printf.sprintf "estimate prefix %d" n)
      (Failure.Renewal.estimate ~horizon prefix)
      (Failure.Renewal.Incr.estimate ~horizon incr)
  in
  let rec prefixes acc = function
    | [] -> [ List.rev acc ]
    | e :: rest -> List.rev acc :: prefixes (e :: acc) rest
  in
  List.iter check_prefix (prefixes [] events)

let test_incr_open_outage () =
  (* an open outage is clipped at the horizon exactly like a batch event
     that straddles it *)
  let closed = [ { Failure.Renewal.down_at = 2.; up_at = 3. } ] in
  let incr =
    Failure.Renewal.Incr.down (fold_outages closed) ~at:6.
  in
  Alcotest.(check bool) "is down" true (Failure.Renewal.Incr.is_down incr);
  check_int "open outage not counted" 1 (Failure.Renewal.Incr.count incr);
  (* batch equivalent at horizon 10: pretend the outage ends at the horizon *)
  check_float ~eps:0. "open clipped"
    (Failure.Renewal.estimate ~horizon:10.
       (closed @ [ { Failure.Renewal.down_at = 6.; up_at = 10. } ]))
    (Failure.Renewal.Incr.estimate ~horizon:10. incr);
  (* horizon before the open outage starts: no extra downtime *)
  check_float ~eps:0. "horizon before open down"
    (Failure.Renewal.estimate ~horizon:5. closed)
    (Failure.Renewal.Incr.estimate ~horizon:5. incr);
  (* closing the outage matches the batch trace *)
  let closed' = closed @ [ { Failure.Renewal.down_at = 6.; up_at = 8. } ] in
  let incr' = Failure.Renewal.Incr.up incr ~at:8. in
  check_float ~eps:0. "after repair"
    (Failure.Renewal.estimate ~horizon:10. closed')
    (Failure.Renewal.Incr.estimate ~horizon:10. incr')

let test_incr_validation () =
  let open Failure.Renewal.Incr in
  let bad f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad (fun () -> up empty ~at:3.);
  bad (fun () -> down (down empty ~at:2.) ~at:3.);
  bad (fun () -> up (down empty ~at:2.) ~at:2.);
  let repaired = up (down empty ~at:2.) ~at:5. in
  bad (fun () -> down repaired ~at:4.);
  bad (fun () -> estimate ~horizon:0. empty);
  bad (fun () -> estimate ~horizon:3. repaired)

let test_scenario_validation () =
  (match Failure.Scenario.of_links fig1 [ (99, 0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad lag id rejected");
  (match Failure.Scenario.of_links fig1 [ (0, 7) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad link idx rejected");
  match Failure.Scenario.of_links fig1 [ (0, 0); (0, 0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate rejected"

let test_probability_zero_prob_links () =
  (* a never-failing link contributes log(1) = 0 when up and -inf when down *)
  let t =
    Wan.Topology.create ~name:"z" ~num_nodes:2
      [ Wan.Lag.make ~id:0 ~src:0 ~dst:1
          [ { Wan.Lag.link_capacity = 5.; fail_prob = 0. };
            { Wan.Lag.link_capacity = 5.; fail_prob = 0.5 } ] ]
  in
  check_float "all up prob" 0.5 (Failure.Scenario.prob t Failure.Scenario.empty);
  let s = Failure.Scenario.of_links t [ (0, 0) ] in
  check_float "impossible scenario" 0. (Failure.Scenario.prob t s)


let suite =
  [
    ("scenario basics", `Quick, test_scenario_basics);
    ("scenario partial lag", `Quick, test_scenario_partial_lag);
    ("scenario probability", `Quick, test_scenario_prob);
    ("max simultaneous failures", `Quick, test_max_simultaneous);
    ("always-down links", `Quick, test_always_down_links);
    ("threshold = 1 boundary", `Quick, test_threshold_one_boundary);
    ("renewal estimate", `Quick, test_renewal_estimate);
    ("renewal validation", `Quick, test_renewal_validation);
    ("incremental matches batch on prefixes", `Quick, test_incr_matches_batch_on_prefixes);
    ("incremental open outage", `Quick, test_incr_open_outage);
    ("incremental validation", `Quick, test_incr_validation);
    ("trace estimation converges", `Quick, test_trace_estimation_converges);
    ("calibrate topology", `Quick, test_calibrate_topology);
    ("enumerate up to k", `Quick, test_enumerate_up_to_k);
    ("lag failures", `Quick, test_lag_failures);
    ("srlg", `Quick, test_srlg);
    ("enumerate guards", `Quick, test_enumerate_guards);
    ("enumerate counting properties", `Quick, test_enumerate_counting_properties);
    ("binomial matches pascal triangle", `Quick, test_binomial_matches_pascal);
    ("scenario validation", `Quick, test_scenario_validation);
    ("zero-probability links", `Quick, test_probability_zero_prob_links);
    QCheck_alcotest.to_alcotest prop_greedy_matches_enumeration;
  ]
