(* Topology, LAG, generator, Zoo and GML tests. *)

let check_int = Alcotest.(check int)
let check_float what expected got = Alcotest.(check (float 1e-9)) what expected got

let test_lag_basics () =
  let lag =
    Wan.Lag.make ~id:0 ~src:0 ~dst:1
      [
        { Wan.Lag.link_capacity = 10.; fail_prob = 0.1 };
        { Wan.Lag.link_capacity = 20.; fail_prob = 0.2 };
      ]
  in
  check_float "capacity" 30. (Wan.Lag.capacity lag);
  check_int "links" 2 (Wan.Lag.num_links lag)

let test_lag_validation () =
  let bad f = Alcotest.check_raises "rejects" (Invalid_argument "") (fun () ->
      try f () with Invalid_argument _ -> raise (Invalid_argument ""))
  in
  bad (fun () -> ignore (Wan.Lag.make ~id:0 ~src:1 ~dst:1 [ { Wan.Lag.link_capacity = 1.; fail_prob = 0. } ]));
  bad (fun () -> ignore (Wan.Lag.make ~id:0 ~src:0 ~dst:1 []));
  bad (fun () -> ignore (Wan.Lag.make ~id:0 ~src:0 ~dst:1 [ { Wan.Lag.link_capacity = -1.; fail_prob = 0. } ]));
  bad (fun () -> ignore (Wan.Lag.make ~id:0 ~src:0 ~dst:1 [ { Wan.Lag.link_capacity = 1.; fail_prob = 1.5 } ]));
  bad (fun () -> ignore (Wan.Lag.make ~id:0 ~src:0 ~dst:1 [ { Wan.Lag.link_capacity = 1.; fail_prob = -0.1 } ]));
  (* NaN fails every ordered comparison, so each check must be phrased
     to reject it *)
  bad (fun () -> ignore (Wan.Lag.make ~id:0 ~src:0 ~dst:1 [ { Wan.Lag.link_capacity = Float.nan; fail_prob = 0. } ]));
  bad (fun () -> ignore (Wan.Lag.make ~id:0 ~src:0 ~dst:1 [ { Wan.Lag.link_capacity = Float.infinity; fail_prob = 0. } ]));
  bad (fun () -> ignore (Wan.Lag.make ~id:0 ~src:0 ~dst:1 [ { Wan.Lag.link_capacity = 1.; fail_prob = Float.nan } ]));
  bad (fun () -> ignore (Wan.Lag.make ~id:0 ~src:(-1) ~dst:1 [ { Wan.Lag.link_capacity = 1.; fail_prob = 0. } ]));
  (* fail_prob = 1 is legal: an always-down link *)
  ignore (Wan.Lag.make ~id:0 ~src:0 ~dst:1 [ { Wan.Lag.link_capacity = 1.; fail_prob = 1. } ])

let test_lag_check_link () =
  let link link_capacity fail_prob = { Wan.Lag.link_capacity; fail_prob } in
  let ok l = Alcotest.(check bool) "accepted" true (Wan.Lag.check_link l = Ok ()) in
  let rejected l =
    match Wan.Lag.check_link l with
    | Ok () -> Alcotest.failf "accepted %g %g" l.Wan.Lag.link_capacity l.Wan.Lag.fail_prob
    | Error msg -> Alcotest.(check bool) "reason given" true (msg <> "")
  in
  ok (link 5. 0.);
  ok (link 1e-9 1.);
  ok (link 1e308 0.5);
  List.iter rejected
    [
      link 0. 0.1;
      link (-5.) 0.1;
      link Float.nan 0.1;
      link Float.infinity 0.1;
      link Float.neg_infinity 0.1;
      link 5. (-0.01);
      link 5. 3.01;
      link 5. Float.nan;
      link 5. Float.infinity;
    ];
  (* make rejects exactly what check_link rejects *)
  match Wan.Lag.make ~id:0 ~src:0 ~dst:1 [ link 5. 0.; link 5. Float.nan ] with
  | _ -> Alcotest.fail "make accepted a link check_link rejects"
  | exception Invalid_argument _ -> ()

let test_topology_basics () =
  let t = Wan.Generators.fig1 () in
  check_int "nodes" 4 (Wan.Topology.num_nodes t);
  check_int "lags" 5 (Wan.Topology.num_lags t);
  check_int "links" 5 (Wan.Topology.num_links t);
  Alcotest.(check bool) "connected" true (Wan.Topology.is_connected t);
  check_float "avg lag capacity" 6.8 (Wan.Topology.avg_lag_capacity t);
  check_int "node id by name" 3 (Wan.Topology.node_id t "D");
  let bd = Wan.Topology.lag_between t 1 3 in
  Alcotest.(check bool) "BD exists" true (bd <> None);
  check_float "BD capacity" 8. (Wan.Lag.capacity (Option.get bd));
  check_int "B degree" 2 (List.length (Wan.Topology.neighbors t 1))

let test_topology_mutation () =
  let t = Wan.Generators.fig1 () in
  let t2 =
    Wan.Topology.with_lag_links t ~lag_id:0
      [
        { Wan.Lag.link_capacity = 8.; fail_prob = 0.01 };
        { Wan.Lag.link_capacity = 4.; fail_prob = 0.01 };
      ]
  in
  check_float "augmented capacity" 12. (Wan.Lag.capacity (Wan.Topology.lag t2 0));
  check_int "lags unchanged" 5 (Wan.Topology.num_lags t2);
  let t3 = Wan.Topology.add_lag t ~src:1 ~dst:2 [ { Wan.Lag.link_capacity = 3.; fail_prob = 0.05 } ] in
  check_int "lag added" 6 (Wan.Topology.num_lags t3);
  Alcotest.(check bool) "BC exists now" true (Wan.Topology.lag_between t3 1 2 <> None)

let test_generators () =
  let ring = Wan.Generators.ring 6 in
  check_int "ring lags" 6 (Wan.Topology.num_lags ring);
  Alcotest.(check bool) "ring connected" true (Wan.Topology.is_connected ring);
  let grid = Wan.Generators.grid 3 4 in
  check_int "grid nodes" 12 (Wan.Topology.num_nodes grid);
  check_int "grid lags" 17 (Wan.Topology.num_lags grid);
  Alcotest.(check bool) "grid connected" true (Wan.Topology.is_connected grid);
  let af = Wan.Generators.africa_like ~seed:1 ~n:12 () in
  Alcotest.(check bool) "africa connected" true (Wan.Topology.is_connected af);
  Alcotest.(check bool) "africa has multi-link lags" true (Wan.Topology.num_links af > Wan.Topology.num_lags af)

let test_generators_deterministic () =
  let a = Wan.Generators.africa_like ~seed:5 ~n:10 () in
  let b = Wan.Generators.africa_like ~seed:5 ~n:10 () in
  check_int "same lags" (Wan.Topology.num_lags a) (Wan.Topology.num_lags b);
  check_float "same capacity" (Wan.Topology.avg_lag_capacity a) (Wan.Topology.avg_lag_capacity b)

let test_zoo () =
  let b4 = Wan.Zoo.b4 () in
  check_int "b4 nodes" 12 (Wan.Topology.num_nodes b4);
  check_int "b4 lags" 19 (Wan.Topology.num_lags b4);
  check_float "b4 avg capacity" 5000. (Wan.Topology.avg_lag_capacity b4);
  Alcotest.(check bool) "b4 connected" true (Wan.Topology.is_connected b4);
  let ab = Option.get (Wan.Zoo.by_name "abilene") in
  check_int "abilene nodes" 11 (Wan.Topology.num_nodes ab);
  check_int "abilene lags" 14 (Wan.Topology.num_lags ab);
  Alcotest.(check bool) "abilene connected" true (Wan.Topology.is_connected ab);
  let un = Wan.Zoo.uninett2010 () in
  check_int "uninett nodes" 74 (Wan.Topology.num_nodes un);
  check_int "uninett lags" 101 (Wan.Topology.num_lags un);
  Alcotest.(check bool) "uninett connected" true (Wan.Topology.is_connected un);
  let co = Wan.Zoo.cogentco () in
  check_int "cogentco nodes" 197 (Wan.Topology.num_nodes co);
  check_int "cogentco lags" 243 (Wan.Topology.num_lags co);
  List.iter
    (fun n -> Alcotest.(check bool) n true (Wan.Zoo.by_name n <> None))
    Wan.Zoo.names;
  Alcotest.(check bool) "unknown name" true (Wan.Zoo.by_name "nope" = None)

let gml_sample =
  {|
# a Topology-Zoo style file
graph [
  directed 0
  label "sample"
  node [ id 3 label "Alpha" Country "X" ]
  node [ id 7 label "Beta" ]
  node [ id 9 label "Gamma" ]
  edge [ source 3 target 7 LinkSpeed "10" ]
  edge [ source 7 target 9 ]
  edge [ source 9 target 3 ]
  edge [ source 3 target 9 ]
]
|}

let test_gml () =
  let t = Wan.Gml.parse_string ~name:"sample" gml_sample in
  check_int "nodes" 3 (Wan.Topology.num_nodes t);
  (* parallel 3-9 / 9-3 edges collapse *)
  check_int "lags" 3 (Wan.Topology.num_lags t);
  check_int "Alpha id" 0 (Wan.Topology.node_id t "Alpha");
  check_int "Gamma id" 2 (Wan.Topology.node_id t "Gamma");
  Alcotest.(check bool) "connected" true (Wan.Topology.is_connected t)

let test_gml_errors () =
  let bad s =
    match Wan.Gml.parse_string ~name:"bad" s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "expected Failure"
  in
  bad "graph [ node [ label \"x\" ] ]";
  bad "node [ id 1 ]";
  bad "graph [ node [ id 1 ] edge [ source 1 target 2 ] ]";
  bad "graph [ node [ id 1 ] node [ id 2 ] edge [ source 1 ] ]";
  (* a duplicate id would leave a phantom isolated node *)
  bad "graph [ node [ id 1 ] node [ id 1 ] node [ id 2 ] edge [ source 1 target 2 ] ]";
  (* truncating 1.2 and 1.7 would merge two nodes and their edges *)
  bad
    "graph [ node [ id 1.2 ] node [ id 1.7 ] node [ id 3 ] edge [ source 1.2 target 3 ] \
     edge [ source 1.7 target 3 ] ]";
  bad "graph [ node [ id 1 ] node [ id 2 ] edge [ source 1 target 2.5 ] ]";
  (* every error names its line: the offending token's for a syntax
     error, the faulty block's for a semantic one *)
  let says s expected =
    match Wan.Gml.parse_string ~name:"bad" s with
    | exception Failure m -> Alcotest.(check string) (Printf.sprintf "error for %S" s) expected m
    | _ -> Alcotest.failf "%S: expected Failure" s
  in
  says "graph [\n node [ id 1 ]\n node [ id 2 ]\n edge [ source 1 target 3 ]\n]"
    "Gml: line 4: edge references unknown node 3";
  says "graph [\n node [ id 1 ]\n node [ id 2 ]\n node [ id 1 ]\n]"
    "Gml: line 4: duplicate node id 1";
  says "graph [\n node [ id 1 ]\n\n node [ id 2.5 ]\n]" "Gml: line 4: non-integral node id 2.5";
  says "graph [ node [ id 1 ] node [ id 2 ]\n edge [ source 1\n target 2.5 ] ]"
    "Gml: line 2: non-integral edge target 2.5";
  says "# comment\ngraph 5\n" "Gml: line 2: graph is not a block";
  says "graph [ node [ id 1 ] ]\ngraph [ node [ id 2 ] ]" "Gml: line 2: multiple graph blocks";
  (* a scalar node or edge entry beside valid blocks is not dropped *)
  says "graph [\n node [ id 1 ]\n node [ id 2 ]\n node 7\n edge [ source 1 target 2 ]\n]"
    "Gml: line 4: node is not a block";
  says "graph [\n node [ id 1 ]\n node [ id 2 ]\n edge [ source 1 target 2 ]\n edge 9\n]"
    "Gml: line 5: edge is not a block";
  says "graph [\n node [ label \"a\nb\" ]\n node [ label x ] ]" "Gml: line 2: node without id";
  says "graph [\n node [ id 1 label \"a\nb\" ]\n edge [ ] ]" "Gml: line 4: edge without source/target";
  says "graph [\n node [ id 1 ]\n label ]" "Gml: line 3: missing value for key \"label\"";
  says "graph [\n\n [" "Gml: line 3: expected key";
  says "\n\ngraph [ label \"open\n" "Gml: line 3: unterminated string";
  says "graph [\n id 1e5e5 ]" "Gml: line 2: bad number \"1e5e5\"";
  says "graph [\n id ! ]" "Gml: line 2: unexpected character '!'";
  says "graph [\n]\n" "Gml: line 1: graph has no nodes";
  says "node [ id 1 ]\n" "Gml: line 2: no graph block"

(* A GML file is untrusted input: every truncation and every single-byte
   substitution of a valid file must parse or fail with [Failure] (which
   the CLI reports in-band), never raise anything else. *)
let gml_in_band s =
  match Wan.Gml.parse_string ~name:"fuzz" s with
  | _ | (exception Failure _) -> ()
  | exception e -> Alcotest.failf "%S raised %s" s (Printexc.to_string e)

let test_gml_mutations () =
  let n = String.length gml_sample in
  for l = 0 to n - 1 do
    gml_in_band (String.sub gml_sample 0 l)
  done;
  String.iteri
    (fun i _ ->
      String.iter
        (fun c -> gml_in_band (String.mapi (fun j x -> if j = i then c else x) gml_sample))
        "[]\"#-+.0129eExz _\n\000\255")
    gml_sample

let prop_gml_random_bytes =
  let alphabet = "[]\"#-+.0123456789eE graphnodedgeidsourcetargetlabel\n" in
  QCheck2.Test.make ~name:"gml: random bytes parse or fail in band" ~count:2000
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      string_size
        ~gen:(oneofl (List.init (String.length alphabet) (String.get alphabet)))
        (0 -- 80))
    (fun s ->
      gml_in_band s;
      true)

let test_serialize_roundtrip () =
  let t = Wan.Generators.africa_like ~seed:4 ~n:9 () in
  let t2 = Wan.Serialize.of_string (Wan.Serialize.to_string t) in
  check_int "nodes" (Wan.Topology.num_nodes t) (Wan.Topology.num_nodes t2);
  check_int "lags" (Wan.Topology.num_lags t) (Wan.Topology.num_lags t2);
  check_int "links" (Wan.Topology.num_links t) (Wan.Topology.num_links t2);
  Alcotest.(check string) "name" (Wan.Topology.name t) (Wan.Topology.name t2);
  (* link-level equality, including probabilities *)
  Array.iteri
    (fun e (lag : Wan.Lag.t) ->
      let lag2 = Wan.Topology.lag t2 e in
      check_int "endpoints src" lag.Wan.Lag.src lag2.Wan.Lag.src;
      check_int "endpoints dst" lag.Wan.Lag.dst lag2.Wan.Lag.dst;
      Array.iteri
        (fun i (l : Wan.Lag.link) ->
          let l2 = lag2.Wan.Lag.links.(i) in
          check_float "cap" l.Wan.Lag.link_capacity l2.Wan.Lag.link_capacity;
          check_float "prob" l.Wan.Lag.fail_prob l2.Wan.Lag.fail_prob)
        lag.Wan.Lag.links)
    (Wan.Topology.lags t)

let test_serialize_errors () =
  let bad s =
    match Wan.Serialize.of_string s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "expected Failure"
  in
  bad "lag 0 1\nlink 5 0.1";
  (* missing nodes *)
  bad "nodes 2\nlink 5 0.1";
  (* link before lag *)
  bad "nodes 2\nlag 0 1";
  (* lag with no links *)
  bad "nodes 2\nwhatever";
  (* bad values are reported at the line that holds them *)
  let bad_at lineno s =
    let prefix = Printf.sprintf "line %d:" lineno in
    match Wan.Serialize.of_string s with
    | exception Failure msg ->
      if not (String.starts_with ~prefix msg) then Alcotest.failf "%S: message %S" s msg
    | exception e -> Alcotest.failf "%S raised %s" s (Printexc.to_string e)
    | _ -> Alcotest.failf "%S accepted" s
  in
  bad_at 3 "nodes 4\nlag 0 1\nlink -5 0.01";
  bad_at 3 "nodes 4\nlag 0 1\nlink 5 3.01";
  bad_at 3 "nodes 4\nlag 0 1\nlink nan 0.01";
  bad_at 3 "nodes 4\nlag 0 1\nlink inf 0.01";
  bad_at 3 "nodes 4\nlag 0 1\nlink 5 nan";
  bad_at 2 "nodes 4\nlag 3 3\nlink 5 0.01";
  bad_at 2 "nodes 4\nlag 7 3\nlink 5 0.01";
  bad_at 2 "nodes 4\nlag -1 3\nlink 5 0.01";
  bad_at 2 "nodes 2\nnode 5 a\nlag 0 1\nlink 5 0.01";
  bad_at 3 "nodes 2\nnode 0 a\nnode 0 b\nlag 0 1\nlink 5 0.01";
  bad_at 2 "nodes 2\nlag 0 1\nlag 1 0\nlink 5 0.01";
  bad_at 2 "nodes 2\nnodes 3";
  (* node arrays are sized from the count: huge counts fail in-band *)
  bad_at 1 "nodes 1000000000000\nlag 0 1\nlink 5 0.01";
  bad_at 1 (Printf.sprintf "nodes %d\nlag 0 1\nlink 5 0.01" max_int);
  (* comments and blank lines are fine *)
  let t =
    Wan.Serialize.of_string "# comment\nwan x\nnodes 2\n\nlag 0 1\nlink 5 0.1\n"
  in
  check_int "parsed" 1 (Wan.Topology.num_lags t)

(* qcheck: a malformed .wan file fails with Failure and nothing else.
   Files are rendered line by line from field tokens, so they mix valid
   values with NaN, infinities, negatives, out-of-range and repeated ids
   and self-loops; most start with a valid node count so that the bad
   values reach LAG and topology construction. Node counts stay small:
   the format puts no bound on them. *)
let prop_serialize_fails_in_band =
  let gen =
    QCheck2.Gen.(
      let id = oneofl [ "0"; "1"; "2"; "3"; "4"; "7"; "-1"; "x"; "1.5" ] in
      let num = oneofl [ "5"; "0.01"; "1"; "0"; "-5"; "3.01"; "nan"; "inf"; "-inf"; "1e308"; "x" ] in
      let line =
        frequency
          [
            (1, map (( ^ ) "nodes ") (oneofl [ "2"; "4"; "0"; "-1"; "x" ]));
            (2, map2 (Printf.sprintf "node %s %s") id (oneofl [ "a"; "b c"; "" ]));
            (3, map2 (Printf.sprintf "lag %s %s") id id);
            (4, map2 (Printf.sprintf "link %s %s") num num);
            (1, oneofl [ "wan w"; "# c"; ""; "link 5"; "lag 1"; "bogus" ]);
          ]
      in
      let* header = oneofl [ "nodes 4"; "nodes 2"; "" ] in
      let* lines = list_size (int_range 0 10) line in
      return (String.concat "\n" (header :: lines)))
  in
  QCheck2.Test.make ~name:"serialize: malformed input raises only Failure" ~count:2000
    ~print:Fun.id gen (fun s ->
      match Wan.Serialize.of_string s with _ -> true | exception Failure _ -> true)

(* qcheck: to_string then of_string gives back the same topology. Link
   values are written with 17 significant digits, so they come back
   bit-identical. *)
let prop_serialize_roundtrip =
  QCheck2.Test.make ~name:"serialize: to_string/of_string round-trip" ~count:50
    QCheck2.Gen.(pair (int_range 0 1000) (int_range 6 16))
    (fun (seed, n) ->
      let t = Wan.Generators.africa_like ~seed ~n () in
      let t2 = Wan.Serialize.of_string (Wan.Serialize.to_string t) in
      Wan.Topology.num_nodes t2 = Wan.Topology.num_nodes t
      && Wan.Topology.name t2 = Wan.Topology.name t
      && List.for_all
           (fun v -> Wan.Topology.node_name t2 v = Wan.Topology.node_name t v)
           (List.init (Wan.Topology.num_nodes t) Fun.id)
      && Wan.Topology.num_lags t2 = Wan.Topology.num_lags t
      && Array.for_all
           (fun (lag : Wan.Lag.t) ->
             let lag2 = Wan.Topology.lag t2 lag.Wan.Lag.lag_id in
             lag2.Wan.Lag.src = lag.Wan.Lag.src
             && lag2.Wan.Lag.dst = lag.Wan.Lag.dst
             && lag2.Wan.Lag.links = lag.Wan.Lag.links)
           (Wan.Topology.lags t))

let suite =
  [
    ("lag basics", `Quick, test_lag_basics);
    ("lag validation", `Quick, test_lag_validation);
    ("lag check_link", `Quick, test_lag_check_link);
    ("topology basics", `Quick, test_topology_basics);
    ("topology mutation", `Quick, test_topology_mutation);
    ("generators", `Quick, test_generators);
    ("generators deterministic", `Quick, test_generators_deterministic);
    ("zoo topologies", `Quick, test_zoo);
    ("gml parser", `Quick, test_gml);
    ("gml errors", `Quick, test_gml_errors);
    ("gml: every truncation and byte substitution", `Quick, test_gml_mutations);
    QCheck_alcotest.to_alcotest prop_gml_random_bytes;
    ("serialize roundtrip", `Quick, test_serialize_roundtrip);
    ("serialize errors", `Quick, test_serialize_errors);
    QCheck_alcotest.to_alcotest prop_serialize_fails_in_band;
    QCheck_alcotest.to_alcotest prop_serialize_roundtrip;
  ]

