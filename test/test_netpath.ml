(* Dijkstra, Yen and path-set tests. *)

let check_int = Alcotest.(check int)

let fig1 = Wan.Generators.fig1 ()

(* node ids in fig1: A=0 B=1 C=2 D=3 *)

let test_path_make () =
  let p = Netpath.Path.make fig1 [ 1; 0; 3 ] in
  check_int "length" 2 (Netpath.Path.length p);
  check_int "src" 1 (Netpath.Path.src p);
  check_int "dst" 3 (Netpath.Path.dst p);
  Alcotest.(check bool) "mem AD lag" true (Netpath.Path.mem_lag p 2);
  Alcotest.(check bool) "not mem CD lag" false (Netpath.Path.mem_lag p 1);
  (match Netpath.Path.make fig1 [ 1; 2 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "no LAG between B and C");
  match Netpath.Path.make fig1 [ 1; 0; 1 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "repeated node"

let test_dijkstra () =
  let p = Option.get (Netpath.Shortest.dijkstra fig1 ~src:1 ~dst:3) in
  check_int "B-D direct" 1 (Netpath.Path.length p);
  (* with BD heavily weighted, route via A *)
  let w id = if id = 0 then 10. else 1. in
  let p2 = Option.get (Netpath.Shortest.dijkstra ~weight:w fig1 ~src:1 ~dst:3) in
  check_int "B-A-D" 2 (Netpath.Path.length p2);
  Alcotest.(check (list int)) "nodes" [ 1; 0; 3 ] (Netpath.Path.node_list p2);
  (* avoiding the BD lag also forces the detour *)
  let p3 =
    Option.get
      (Netpath.Shortest.dijkstra ~avoid_lags:(fun id -> id = 0) fig1 ~src:1 ~dst:3)
  in
  check_int "avoid BD" 2 (Netpath.Path.length p3);
  (* unreachable when everything around D is cut *)
  Alcotest.(check bool) "unreachable" true
    (Netpath.Shortest.dijkstra
       ~avoid_lags:(fun id -> List.mem id [ 0; 1; 2 ])
       fig1 ~src:1 ~dst:3
    = None)

let test_yen () =
  (* B->D has exactly 3 simple paths: B-D, B-A-D, B-A-C-D *)
  let ps = Netpath.Shortest.yen fig1 ~src:1 ~dst:3 4 in
  check_int "three simple paths" 3 (List.length ps);
  (match ps with
  | [ a; b; c ] ->
    check_int "first is direct" 1 (Netpath.Path.length a);
    check_int "second via A" 2 (Netpath.Path.length b);
    check_int "third via A and C" 3 (Netpath.Path.length c)
  | _ -> Alcotest.fail "expected 3");
  (* on a 3x3 grid there are many paths; lengths must be non-decreasing *)
  let grid = Wan.Generators.grid 3 3 in
  let ps = Netpath.Shortest.yen grid ~src:0 ~dst:8 6 in
  check_int "six paths" 6 (List.length ps);
  let lens = List.map Netpath.Path.length ps in
  Alcotest.(check bool) "sorted" true (List.sort compare lens = lens);
  (* all distinct *)
  let rec distinct = function
    | [] -> true
    | p :: rest -> (not (List.exists (Netpath.Path.equal p) rest)) && distinct rest
  in
  Alcotest.(check bool) "distinct" true (distinct ps)

let test_path_set () =
  let ps =
    Netpath.Path_set.compute ~n_primary:1 ~n_backup:1 fig1 [ (1, 3); (2, 3) ]
  in
  check_int "pairs" 2 (List.length ps);
  let bd = Netpath.Path_set.find ps ~src:1 ~dst:3 in
  check_int "primary" 1 (Netpath.Path_set.num_primary bd);
  check_int "backup" 1 (Netpath.Path_set.num_backup bd);
  check_int "total paths" 4 (Netpath.Path_set.total_paths ps);
  (* requesting more paths than exist (B->D has 3): give what's there *)
  let ps2 = Netpath.Path_set.compute ~n_primary:2 ~n_backup:3 fig1 [ (1, 3) ] in
  let p = Netpath.Path_set.find ps2 ~src:1 ~dst:3 in
  check_int "capped primary" 2 (Netpath.Path_set.num_primary p);
  check_int "capped backup" 1 (Netpath.Path_set.num_backup p)

let test_path_set_schemes () =
  let grid = Wan.Generators.grid 3 3 in
  let pairs = [ (0, 8) ] in
  let disjoint =
    Netpath.Path_set.compute ~scheme:Netpath.Path_set.Lag_disjoint ~n_primary:2
      ~n_backup:0 grid pairs
  in
  let p = Netpath.Path_set.find disjoint ~src:0 ~dst:8 in
  (match p.Netpath.Path_set.primary with
  | [ a; b ] -> Alcotest.(check bool) "disjoint" true (Netpath.Path.lag_disjoint a b)
  | _ -> Alcotest.fail "expected 2 paths");
  let penalized =
    Netpath.Path_set.compute ~scheme:Netpath.Path_set.Usage_penalized ~n_primary:3
      ~n_backup:0 grid pairs
  in
  let q = Netpath.Path_set.find penalized ~src:0 ~dst:8 in
  check_int "three paths" 3 (List.length q.Netpath.Path_set.primary)

let test_weighted_scheme () =
  (* weighting the direct BD link away forces BAD first *)
  let w id = if id = 0 then 10. else 1. in
  let ps =
    Netpath.Path_set.compute ~scheme:(Netpath.Path_set.Weighted w) ~n_primary:1
      ~n_backup:1 fig1 [ (1, 3) ]
  in
  let p = Netpath.Path_set.find ps ~src:1 ~dst:3 in
  match p.Netpath.Path_set.primary with
  | [ a ] -> check_int "primary via A" 2 (Netpath.Path.length a)
  | _ -> Alcotest.fail "expected 1 primary"

let test_of_lags_and_weight () =
  (* B-A-D runs over LAGs BA = 3 and AD = 2 *)
  let p = Netpath.Path.make fig1 [ 1; 0; 3 ] in
  Alcotest.(check (list int)) "lags" [ 3; 2 ] (Netpath.Path.lag_list p);
  let w id = float_of_int (id + 1) in
  check_int "weight" 7 (int_of_float (Netpath.Path.weight w p));
  (* lag_disjoint *)
  let q = Netpath.Path.make fig1 [ 1; 3 ] in
  Alcotest.(check bool) "disjoint" true (Netpath.Path.lag_disjoint p q);
  Alcotest.(check bool) "self not disjoint" false (Netpath.Path.lag_disjoint p p)

let prop_yen_paths_valid =
  QCheck2.Test.make ~name:"yen: paths are simple, distinct, sorted" ~count:50
    QCheck2.Gen.(
      let* seed = int_range 0 500 in
      let* k = int_range 1 6 in
      return (seed, k))
    (fun (seed, k) ->
      let topo = Wan.Generators.africa_like ~seed ~n:8 () in
      let ps = Netpath.Shortest.yen topo ~src:0 ~dst:7 k in
      let lens = List.map Netpath.Path.length ps in
      let rec distinct = function
        | [] -> true
        | p :: rest -> (not (List.exists (Netpath.Path.equal p) rest)) && distinct rest
      in
      List.length ps <= k
      && List.sort compare lens = lens
      && distinct ps
      && List.for_all (fun p -> Netpath.Path.src p = 0 && Netpath.Path.dst p = 7) ps)


let suite =
  [
    ("path make", `Quick, test_path_make);
    ("dijkstra", `Quick, test_dijkstra);
    ("yen", `Quick, test_yen);
    ("path set", `Quick, test_path_set);
    ("path set schemes", `Quick, test_path_set_schemes);
    ("weighted scheme", `Quick, test_weighted_scheme);
    ("of_lags and weight", `Quick, test_of_lags_and_weight);
    QCheck_alcotest.to_alcotest prop_yen_paths_valid;
  ]
