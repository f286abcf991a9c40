(* Demand matrices, gravity model, synthetic history and envelopes. *)

let check_float ?(eps = 1e-9) what expected got =
  Alcotest.(check (float eps)) what expected got

let check_int = Alcotest.(check int)
let num_pairs d = List.length (Traffic.Demand.pairs d)

(* per-pair time average of a synthetic series *)
let series_mean (s : Traffic.Traffic_gen.series) ~src ~dst =
  let samples = s.Traffic.Traffic_gen.samples in
  Array.fold_left (fun acc d -> acc +. Traffic.Demand.volume d ~src ~dst) 0. samples
  /. float_of_int (Array.length samples)

let test_demand_basics () =
  let d = Traffic.Demand.of_list [ ((0, 1), 5.); ((2, 3), 7.) ] in
  check_float "volume" 5. (Traffic.Demand.volume d ~src:0 ~dst:1);
  check_float "absent pair" 0. (Traffic.Demand.volume d ~src:1 ~dst:0);
  check_float "total" 12. (Traffic.Demand.total d);
  check_int "cardinal" 2 (num_pairs d);
  let d2 = Traffic.Demand.scale 2. d in
  check_float "scaled" 10. (Traffic.Demand.volume d2 ~src:0 ~dst:1);
  let d3 = Traffic.Demand.set d ~src:0 ~dst:1 9. in
  check_float "set" 9. (Traffic.Demand.volume d3 ~src:0 ~dst:1);
  check_float "original untouched" 5. (Traffic.Demand.volume d ~src:0 ~dst:1);
  Alcotest.(check (list (pair int int))) "pairs" [ (0, 1); (2, 3) ] (Traffic.Demand.pairs d)

let test_demand_validation () =
  let bad l =
    match Traffic.Demand.of_list l with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  bad [ ((0, 1), -1.) ];
  bad [ ((1, 1), 2.) ];
  bad [ ((0, 1), 1.); ((0, 1), 2.) ];
  bad [ ((0, 1), Float.nan) ];
  bad [ ((0, 1), Float.infinity) ];
  bad [ ((-1, 2), 5.) ];
  bad [ ((1, -2), 5.) ]

let test_demand_add () =
  let d = Traffic.Demand.of_list [ ((0, 1), 5.) ] in
  let rejected what pair v =
    match Traffic.Demand.add d pair v with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error msg -> Alcotest.(check bool) (what ^ ": reason given") true (msg <> "")
  in
  rejected "negative src" (-1, 2) 5.;
  rejected "negative dst" (2, -1) 5.;
  rejected "self pair" (2, 2) 5.;
  rejected "negative volume" (1, 2) (-0.5);
  rejected "nan volume" (1, 2) Float.nan;
  rejected "infinite volume" (1, 2) Float.infinity;
  rejected "duplicate pair" (0, 1) 6.;
  (match Traffic.Demand.add d (1, 0) 0. with
   | Error msg -> Alcotest.failf "reverse pair rejected: %s" msg
   | Ok d2 ->
     check_int "one more entry" 2 (num_pairs d2);
     check_float "new volume" 0. (Traffic.Demand.volume d2 ~src:1 ~dst:0);
     check_float "old volume kept" 5. (Traffic.Demand.volume d2 ~src:0 ~dst:1));
  (* add is persistent: the original matrix is unchanged *)
  check_int "original untouched" 1 (num_pairs d)

let test_demand_union_max () =
  let a = Traffic.Demand.of_list [ ((0, 1), 5.); ((2, 3), 7.) ] in
  let b = Traffic.Demand.of_list [ ((0, 1), 3.); ((4, 5), 2.) ] in
  let u = Traffic.Demand.union_max a b in
  check_float "max kept" 5. (Traffic.Demand.volume u ~src:0 ~dst:1);
  check_float "a-only kept" 7. (Traffic.Demand.volume u ~src:2 ~dst:3);
  check_float "b-only kept" 2. (Traffic.Demand.volume u ~src:4 ~dst:5)

let test_gravity () =
  let topo = Wan.Generators.ring 6 in
  let d = Traffic.Gravity.generate ~scale:100. ~seed:3 topo () in
  (* all ordered pairs *)
  check_int "pairs" 30 (num_pairs d);
  let peak =
    List.fold_left (fun acc (_, v) -> Float.max acc v) 0. (Traffic.Demand.entries d)
  in
  check_float "peak equals scale" 100. peak;
  List.iter
    (fun (_, v) -> Alcotest.(check bool) "positive" true (v > 0.))
    (Traffic.Demand.entries d);
  (* deterministic *)
  let d2 = Traffic.Gravity.generate ~scale:100. ~seed:3 topo () in
  check_float "deterministic" (Traffic.Demand.total d) (Traffic.Demand.total d2);
  (* restricted pairs *)
  let d3 = Traffic.Gravity.generate ~pairs:[ (0, 3) ] ~scale:50. ~seed:3 topo () in
  check_int "restricted" 1 (num_pairs d3)

let test_traffic_gen () =
  let topo = Wan.Generators.ring 5 in
  let pairs = [ (0, 2); (1, 3) ] in
  let s =
    Traffic.Traffic_gen.generate ~seed:9 ~days:10 ~samples_per_day:4 ~pairs
      ~mean_volume:40. topo ()
  in
  check_int "samples" 40 (Array.length s.Traffic.Traffic_gen.samples);
  let mx = Traffic.Traffic_gen.maximum s in
  List.iter
    (fun (src, dst) ->
      let a = series_mean s ~src ~dst in
      let m = Traffic.Demand.volume mx ~src ~dst in
      Alcotest.(check bool) "max >= avg" true (m >= a);
      Alcotest.(check bool) "avg positive" true (a > 0.);
      (* max over each sample individually *)
      Array.iter
        (fun d ->
          Alcotest.(check bool) "max dominates samples" true
            (Traffic.Demand.volume d ~src ~dst <= m +. 1e-9))
        s.Traffic.Traffic_gen.samples)
    pairs

let test_envelope_fixed () =
  let d = Traffic.Demand.of_list [ ((0, 1), 5.) ] in
  let e = Traffic.Envelope.fixed d in
  Alcotest.(check bool) "is_fixed" true (Traffic.Envelope.is_fixed e);
  check_float "lo = hi" (Traffic.Envelope.lo_volume e ~src:0 ~dst:1)
    (Traffic.Envelope.hi_volume e ~src:0 ~dst:1);
  check_float "max_hi" 5. (Traffic.Envelope.max_hi e)

let test_envelope_ranges () =
  let d = Traffic.Demand.of_list [ ((0, 1), 10.); ((1, 2), 20.) ] in
  let z = Traffic.Envelope.from_zero ~slack:0.5 d in
  check_float "lo 0" 0. (Traffic.Envelope.lo_volume z ~src:0 ~dst:1);
  check_float "hi scaled" 15. (Traffic.Envelope.hi_volume z ~src:0 ~dst:1);
  Alcotest.(check bool) "not fixed" false (Traffic.Envelope.is_fixed z);
  let a = Traffic.Envelope.around ~slack:0.3 d in
  check_float "around lo" 7. (Traffic.Envelope.lo_volume a ~src:0 ~dst:1);
  check_float "around hi" 13. (Traffic.Envelope.hi_volume a ~src:0 ~dst:1);
  let u = Traffic.Envelope.unbounded ~cap:99. [ (3, 4) ] in
  check_float "unbounded lo" 0. (Traffic.Envelope.lo_volume u ~src:3 ~dst:4);
  check_float "unbounded hi" 99. (Traffic.Envelope.hi_volume u ~src:3 ~dst:4);
  match Traffic.Envelope.from_zero ~slack:(-0.1) d with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative slack rejected"

(* qcheck: average of the synthetic series stays near the configured
   per-pair base level (the generator's contract with §8.1) *)
let prop_series_avg_near_base =
  QCheck2.Test.make ~name:"traffic series: time-average tracks base level" ~count:20
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let topo = Wan.Generators.ring 4 in
      let pairs = [ (0, 2) ] in
      let s =
        Traffic.Traffic_gen.generate ~seed ~days:30 ~samples_per_day:8 ~pairs
          ~mean_volume:50. topo ()
      in
      let base = Traffic.Demand.volume s.Traffic.Traffic_gen.base ~src:0 ~dst:2 in
      let avg = series_mean s ~src:0 ~dst:2 in
      Float.abs (avg -. base) /. base < 0.25)

let test_demand_io_roundtrip () =
  let d = Traffic.Demand.of_list [ ((0, 1), 5.25); ((3, 2), 0.); ((7, 9), 1e6) ] in
  let d2 = Traffic.Demand_io.of_csv (Traffic.Demand_io.to_csv d) in
  check_int "cardinal" (num_pairs d) (num_pairs d2);
  List.iter
    (fun ((src, dst), v) ->
      check_float "volume" v (Traffic.Demand.volume d2 ~src ~dst))
    (Traffic.Demand.entries d)

let test_demand_io_errors () =
  let bad s =
    match Traffic.Demand_io.of_csv s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "expected Failure"
  in
  bad "1,2";
  bad "a,b,c";
  bad "1,2,3,4";
  (* bad entries are reported at the line that holds them *)
  let bad_at lineno s =
    let prefix = Printf.sprintf "line %d:" lineno in
    match Traffic.Demand_io.of_csv s with
    | exception Failure msg ->
      if not (String.starts_with ~prefix msg) then Alcotest.failf "%S: message %S" s msg
    | exception e -> Alcotest.failf "%S raised %s" s (Printexc.to_string e)
    | _ -> Alcotest.failf "%S accepted" s
  in
  bad_at 2 "0,1,5\n1,3,nan";
  bad_at 1 "0,1,inf";
  bad_at 1 "-1,2,5";
  bad_at 2 "0,1,5\n0,1,6";
  bad_at 1 "3,3,1e3";
  bad_at 1 "1,2,-.5";
  (* comments and blanks ok *)
  let d = Traffic.Demand_io.of_csv "# hdr\n\n1,2,3.5\n" in
  check_float "parsed" 3.5 (Traffic.Demand.volume d ~src:1 ~dst:2)

(* qcheck: a malformed demand CSV fails with Failure and nothing else.
   Rows are rendered from field tokens mixing valid values with NaN,
   infinities, negatives, self-pairs and (through the small id set)
   repeated pairs. *)
let prop_csv_fails_in_band =
  let gen =
    QCheck2.Gen.(
      let id = oneofl [ "0"; "1"; "2"; "3"; "-1"; "x"; "" ] in
      let vol = oneofl [ "5"; "0"; "1e3"; "nan"; "inf"; "-inf"; "-.5"; "-1"; "x" ] in
      let row =
        frequency
          [
            (6, map3 (Printf.sprintf "%s,%s,%s") id id vol);
            (1, oneofl [ "1,2"; "1,2,3,4"; "# c"; "" ]);
          ]
      in
      map (String.concat "\n") (list_size (int_range 0 8) row))
  in
  QCheck2.Test.make ~name:"demand csv: malformed input raises only Failure" ~count:2000
    ~print:Fun.id gen (fun s ->
      match Traffic.Demand_io.of_csv s with _ -> true | exception Failure _ -> true)

(* qcheck: to_csv then of_csv gives back the same matrix, volumes
   bit-identical (they are written with 17 significant digits) *)
let prop_csv_roundtrip =
  QCheck2.Test.make ~name:"demand csv: to_csv/of_csv round-trip" ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 12)
        (triple (int_range 0 20) (int_range 0 20)
           (oneof [ float_range 0. 1e6; return 0.; return 1e300; return 5e-324 ])))
    (fun rows ->
      let d =
        List.fold_left
          (fun d (src, dst, v) ->
            match Traffic.Demand.add d (src, dst) v with Ok d -> d | Error _ -> d)
          Traffic.Demand.empty rows
      in
      let d2 = Traffic.Demand_io.of_csv (Traffic.Demand_io.to_csv d) in
      Traffic.Demand.entries d2 = Traffic.Demand.entries d)

let suite =
  [
    ("demand basics", `Quick, test_demand_basics);
    ("demand validation", `Quick, test_demand_validation);
    ("demand add", `Quick, test_demand_add);
    ("demand union max", `Quick, test_demand_union_max);
    ("gravity model", `Quick, test_gravity);
    ("traffic generator", `Quick, test_traffic_gen);
    ("envelope fixed", `Quick, test_envelope_fixed);
    ("envelope ranges", `Quick, test_envelope_ranges);
    ("demand io roundtrip", `Quick, test_demand_io_roundtrip);
    ("demand io errors", `Quick, test_demand_io_errors);
    QCheck_alcotest.to_alcotest prop_series_avg_near_base;
    QCheck_alcotest.to_alcotest prop_csv_fails_in_band;
    QCheck_alcotest.to_alcotest prop_csv_roundtrip;
  ]

