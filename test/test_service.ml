(* Always-on degradation service: protocol, state ingestion,
   invalidation policy, replay determinism across domain counts,
   budget-exhaustion honesty, and a fork-based socket round trip. *)

module J = Service.Json
module Ev = Service.Event

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let fig1 = Wan.Generators.fig1 ()

let fig1_demand = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ]

let fig1_paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:0 fig1 [ (1, 3); (2, 3) ]

let make_config ?(domains = 1) ?(drift_tol = 0.5) ?(cuts = Milp.Cuts.default)
    ?(envelope = Traffic.Envelope.around ~slack:0.5 fig1_demand)
    ?(time_limit = Float.infinity)
    ?(spec = { Raha.Bilevel.default_spec with Raha.Bilevel.max_failures = Some 1 }) () =
  let paths = fig1_paths in
  let options = { Raha.Analysis.default_options with spec; domains; cuts; time_limit } in
  { Service.Core.paths; envelope; options; drift_tol; alert_tolerance = 0.1 }

let make_core ?domains ?drift_tol () =
  Service.Core.create (make_config ?domains ?drift_tol ()) fig1

let render j = J.to_string (Service.Core.strip_volatile j)

let get_str key j =
  match J.to_str (J.member key j) with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "missing string %S in %s" key (J.to_string j))

let is_ok j = J.to_bool (J.member "ok" j) = Some true

let get_int key j =
  match J.to_int (J.member key j) with
  | Some n -> n
  | None -> Alcotest.fail (Printf.sprintf "missing int %S in %s" key (J.to_string j))

let bound_bits j =
  match J.to_float (J.member "bound" j) with
  | Some b -> Int64.bits_of_float b
  | None -> Alcotest.fail (Printf.sprintf "missing bound in %s" (J.to_string j))

(* a deterministic interleaved telemetry stream: per-lag exponential
   traces merged by time (fig1 has 5 single-link lags) *)
let telemetry ~seed ~horizon =
  let per_link =
    List.concat
      (List.init (Wan.Topology.num_lags fig1) (fun e ->
           let events =
             Failure.Trace.exponential ~seed:((seed * 10) + e) ~mean_uptime:40.
               ~mean_downtime:4. ~horizon ()
           in
           List.concat_map
             (fun (ev : Failure.Renewal.event) ->
               [
                 ( ev.Failure.Renewal.down_at,
                   Ev.Link_down { lag = e; link = 0; at = ev.Failure.Renewal.down_at } );
                 ( ev.Failure.Renewal.up_at,
                   Ev.Link_up { lag = e; link = 0; at = ev.Failure.Renewal.up_at } );
               ])
             events))
  in
  List.map snd (List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) per_link)

(* --- wire format -------------------------------------------------------- *)

let test_json_roundtrip () =
  let cases =
    [
      J.Null;
      J.Bool true;
      J.Int (-42);
      J.float 0.1;
      J.float 1.0999999999999996;
      J.float (-1e-300);
      J.float Float.nan;
      J.float Float.infinity;
      J.float Float.neg_infinity;
      J.String "he said \"hi\"\n\tdone \\ end";
      J.List [ J.Int 1; J.List []; J.Obj [] ];
      J.Obj [ ("a", J.List [ J.Bool false ]); ("b", J.String "") ];
    ]
  in
  List.iter
    (fun j ->
      let s = J.to_string j in
      match J.of_string s with
      | Ok j' -> check_str "round trip" s (J.to_string j')
      | Error m -> Alcotest.fail (Printf.sprintf "parse %s: %s" s m))
    cases;
  (* float payloads survive to the last bit *)
  let v = 1.0999999999999996 in
  (match J.of_string (J.to_string (J.float v)) with
  | Ok j -> Alcotest.(check bool) "bit-exact float" true (J.to_float j = Some v)
  | Error m -> Alcotest.fail m);
  List.iter
    (fun bad ->
      match J.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %S" bad))
    [ ""; "{"; "[1,]"; "{\"a\":1"; "1 2"; "nul"; "\"unterminated" ]

let test_protocol_roundtrip () =
  let reqs =
    [
      Ev.Event (Ev.Link_down { lag = 1; link = 0; at = 3.5 });
      Ev.Event (Ev.Link_up { lag = 1; link = 0; at = 4.25 });
      Ev.Event (Ev.Capacity { lag = 0; link = 0; capacity = 12.; at = 5. });
      Ev.Event (Ev.Demand { src = 1; dst = 3; lo = 4.5; hi = 17.25; at = 6. });
      Ev.Subscribe { tolerance = None };
      Ev.Subscribe { tolerance = Some 0.25 };
      Ev.Query (Ev.Worst { budget = Some 500; max_nodes = None });
      Ev.Query (Ev.Worst { budget = None; max_nodes = Some 10 });
      Ev.Query (Ev.Now { down = None });
      Ev.Query (Ev.Now { down = Some [ (0, 0); (2, 0) ] });
      Ev.Query Ev.Status;
      Ev.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      let line = J.to_string (Ev.json_of_request req) in
      match Ev.request_of_line line with
      | Ok req' ->
        Alcotest.(check bool) (Printf.sprintf "round trip %s" line) true (req = req')
      | Error m -> Alcotest.fail (Printf.sprintf "%s: %s" line m))
    reqs;
  List.iter
    (fun bad ->
      match Ev.request_of_line bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %s" bad))
    [
      "{}";
      {|{"op":"nope"}|};
      {|{"op":"event","ev":"down","lag":0}|};
      {|{"op":"event","ev":"sideways","lag":0,"link":0,"t":1}|};
      {|{"op":"query","q":"worst","budget":"lots"}|};
      {|{"op":"query","q":"now","down":[[0]]}|};
      {|{"op":"event","ev":"demand","lag":0,"link":0,"t":1}|};
      {|{"op":"demand","src":1,"dst":3,"lo":"x","hi":2,"t":1}|};
      {|{"op":"demand","src":1,"dst":3,"lo":1,"t":1}|};
      {|{"op":"subscribe","tolerance":-0.5}|};
      {|{"op":"subscribe","tolerance":"inf"}|};
      "not json at all";
    ]

(* --- state ingestion ---------------------------------------------------- *)

let test_state_apply () =
  let s =
    Service.State.create
      ~envelope:
        (Traffic.Envelope.around ~slack:0.5
           (Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ]))
      fig1
  in
  let ok e =
    match Service.State.apply s e with
    | Ok structural -> structural
    | Error m -> Alcotest.fail m
  in
  let rejected e =
    let before = Service.State.events_applied s in
    (match Service.State.apply s e with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "event accepted");
    check_int "rejected event not applied" before (Service.State.events_applied s)
  in
  Alcotest.(check bool) "down not structural" false
    (ok (Ev.Link_down { lag = 0; link = 0; at = 10. }));
  Alcotest.(check (list (pair int int))) "live down" [ (0, 0) ]
    (Service.State.live_down s);
  rejected (Ev.Link_down { lag = 0; link = 0; at = 11. }) (* already down *);
  rejected (Ev.Link_up { lag = 0; link = 0; at = 5. }) (* time regression *);
  rejected (Ev.Link_up { lag = 9; link = 0; at = 12. }) (* bad lag *);
  rejected (Ev.Link_up { lag = 0; link = 7; at = 12. }) (* bad link *);
  rejected (Ev.Capacity { lag = 0; link = 0; capacity = -1.; at = 12. });
  Alcotest.(check bool) "up not structural" false
    (ok (Ev.Link_up { lag = 0; link = 0; at = 12. }));
  check_int "no structural change yet" 0 (Service.State.structure_generation s);
  Alcotest.(check bool) "capacity is structural" true
    (ok (Ev.Capacity { lag = 0; link = 0; capacity = 16.; at = 13. }));
  check_int "structure generation bumped" 1 (Service.State.structure_generation s);
  (* the current topology reflects both the new capacity and the
     renewal estimate for the link that produced telemetry *)
  let t = Service.State.current_topology s in
  let lag0 = Wan.Topology.lag t 0 in
  Alcotest.(check (float 1e-9)) "capacity applied" 16.
    lag0.Wan.Lag.links.(0).Wan.Lag.link_capacity;
  Alcotest.(check (float 1e-9)) "estimate = downtime fraction" (2. /. 13.)
    lag0.Wan.Lag.links.(0).Wan.Lag.fail_prob;
  (* links without telemetry keep the configured probability *)
  Alcotest.(check (float 1e-12)) "no telemetry -> configured" 0.01
    (Wan.Topology.lag t 1).Wan.Lag.links.(0).Wan.Lag.fail_prob;
  (* demand re-forecasts are structural and land in the envelope *)
  rejected (Ev.Demand { src = 0; dst = 1; lo = 1.; hi = 2.; at = 14. })
  (* unknown pair *);
  rejected (Ev.Demand { src = 1; dst = 3; lo = 3.; hi = 2.; at = 14. })
  (* lo > hi *);
  rejected (Ev.Demand { src = 1; dst = 3; lo = -1.; hi = 2.; at = 14. });
  rejected (Ev.Demand { src = 1; dst = 3; lo = 0.; hi = Float.infinity; at = 14. });
  Alcotest.(check bool) "demand is structural" true
    (ok (Ev.Demand { src = 1; dst = 3; lo = 4.; hi = 9.; at = 14. }));
  check_int "structure generation bumped again" 2
    (Service.State.structure_generation s);
  let env = Service.State.envelope s in
  Alcotest.(check (float 0.)) "lo updated" 4.
    (Traffic.Envelope.lo_volume env ~src:1 ~dst:3);
  Alcotest.(check (float 0.)) "hi updated" 9.
    (Traffic.Envelope.hi_volume env ~src:1 ~dst:3);
  Alcotest.(check (float 0.)) "other pair untouched" 15.
    (Traffic.Envelope.hi_volume env ~src:2 ~dst:3)

let test_policy_decide () =
  let d = Service.Policy.decide in
  Alcotest.(check bool) "structural wins" true
    (d ~structural_changed:true ~drift:0. ~drift_tol:1. ~down_in_support:false
    = Service.Policy.Cold);
  Alcotest.(check bool) "drift above tol" true
    (d ~structural_changed:false ~drift:0.2 ~drift_tol:0.1 ~down_in_support:false
    = Service.Policy.Warm);
  Alcotest.(check bool) "down in support" true
    (d ~structural_changed:false ~drift:0. ~drift_tol:0.1 ~down_in_support:true
    = Service.Policy.Warm);
  Alcotest.(check bool) "quiet -> cached" true
    (d ~structural_changed:false ~drift:0.05 ~drift_tol:0.1 ~down_in_support:false
    = Service.Policy.Cached);
  Alcotest.(check (float 0.)) "drift is max abs diff" 0.25
    (Service.Policy.drift [| 0.1; 0.5 |] [| 0.2; 0.25 |]);
  Alcotest.(check bool) "length mismatch -> infinite drift" true
    (Service.Policy.drift [| 0.1 |] [| 0.1; 0.2 |] = Float.infinity)

(* --- replay determinism ------------------------------------------------- *)

(* one mixed script: telemetry with worst/now/status queries woven in *)
let script ~seed =
  let events = telemetry ~seed ~horizon:200. in
  let n = ref 0 in
  List.concat_map
    (fun e ->
      incr n;
      [ Ev.Event e ]
      @ (if !n mod 5 = 2 then [ Ev.Query (Ev.Worst { budget = None; max_nodes = None }) ] else [])
      @ (if !n mod 3 = 0 then [ Ev.Query (Ev.Now { down = None }) ] else [])
      @
      if !n mod 7 = 0 then
        [ Ev.Query (Ev.Now { down = Some [ (2, 0) ] }) ]
      else [])
    events
  @ [
      Ev.Query (Ev.Worst { budget = None; max_nodes = None });
      Ev.Query (Ev.Worst { budget = None; max_nodes = None });
      Ev.Query Ev.Status;
    ]

let replay ~domains reqs =
  let core = make_core ~domains () in
  let out = List.map (fun r -> render (Service.Core.handle core r)) reqs in
  (out, Service.Core.tally core)

let test_replay_deterministic_across_domains () =
  let reqs = script ~seed:3 in
  let out1, tally1 = replay ~domains:1 reqs in
  let out4, tally4 = replay ~domains:4 reqs in
  check_int "same length" (List.length out1) (List.length out4);
  List.iteri
    (fun i (a, b) -> check_str (Printf.sprintf "answer %d bit-identical" i) a b)
    (List.combine out1 out4);
  let c1, w1, k1 = tally1 and c4, w4, k4 = tally4 in
  check_int "cached tally" c1 c4;
  check_int "warm tally" w1 w4;
  check_int "cold tally" k1 k4;
  (* the script must actually exercise the interesting paths *)
  Alcotest.(check bool) "some cached serves" true (c1 > 0);
  Alcotest.(check bool) "some warm re-solves" true (w1 > 0);
  Alcotest.(check bool) "exactly one cold solve" true (k1 >= 1);
  (* every query answer is certified *)
  List.iter2
    (fun req out ->
      match req with
      | Ev.Query (Ev.Worst _) | Ev.Query (Ev.Now _) ->
        let j = Result.get_ok (J.of_string out) in
        Alcotest.(check bool) "ok" true (is_ok j);
        check_str "cert" "ok" (get_str "cert" j)
      | _ -> ())
    reqs out1

let test_now_identical_across_domains () =
  let downs =
    [
      None;
      Some [ (0, 0) ];
      Some [ (1, 0); (2, 0) ];
      Some [ (0, 0); (0, 0) ] (* duplicate: must come back as an error *);
      Some [ (4, 0) ];
    ]
  in
  let answers ~domains =
    let core = make_core ~domains () in
    ignore
      (Service.Core.handle core
         (Ev.Event (Ev.Link_down { lag = 3; link = 0; at = 50. })));
    List.map
      (fun d -> render (Service.Core.handle core (Ev.Query (Ev.Now { down = d }))))
      downs
  in
  let a1 = answers ~domains:1 in
  Alcotest.(check (list string)) "answers identical across domains" a1
    (answers ~domains:4);
  let dup = Result.get_ok (J.of_string (List.nth a1 3)) in
  Alcotest.(check bool) "duplicate down rejected" false (is_ok dup)

(* --- invalidation soundness --------------------------------------------- *)

(* whatever the policy decides (cached / warm), the served worst-case
   answer must agree with a cold full re-solve of the same state on
   every solve-relevant field *)
let stable_fields =
  [ "status"; "degradation"; "normalized"; "bound"; "scenario"; "num_failed_links"; "cert" ]

let project j =
  J.to_string (J.Obj (List.map (fun k -> (k, J.member k j)) stable_fields))

let test_invalidation_sound () =
  let worst = Ev.Query (Ev.Worst { budget = None; max_nodes = None }) in
  let total_cached = ref 0 in
  List.iter
    (fun seed ->
      let events = List.map (fun e -> Ev.Event e) (telemetry ~seed ~horizon:150.) in
      let n = List.length events in
      Alcotest.(check bool) "corpus stream non-trivial" true (n >= 4);
      (* checkpoints: start, middle twice in a row (the second query sees
         zero drift and must be served cached), end *)
      let checkpoints = [ 0; n / 2; n / 2; n ] in
      let live = make_core () in
      let applied = ref 0 in
      List.iter
        (fun stop ->
          List.iteri
            (fun i ev ->
              if i >= !applied && i < stop then begin
                Alcotest.(check bool) "event applied" true
                  (is_ok (Service.Core.handle live ev))
              end)
            events;
          applied := max !applied stop;
          let served = Service.Core.handle live worst in
          (* reference: a fresh core replays the same prefix and solves cold *)
          let fresh = make_core () in
          List.iteri
            (fun i ev -> if i < stop then ignore (Service.Core.handle fresh ev))
            events;
          let cold = Service.Core.handle fresh worst in
          Alcotest.(check bool) "served ok" true (is_ok served);
          let provenance = get_str "provenance" served in
          check_str
            (Printf.sprintf "seed %d prefix %d: %s serve agrees with cold re-solve"
               seed stop provenance)
            (project cold) (project served);
          (* a solve in the live core is the fresh core's solve: same
             model, same search (a cached answer may come from an
             earlier state, so only its projection must agree) *)
          if provenance <> "cached" then begin
            let what = Printf.sprintf "seed %d prefix %d: %s" seed stop provenance in
            check_int (what ^ " nodes") (get_int "nodes" cold) (get_int "nodes" served);
            Alcotest.(check int64)
              (what ^ " bound bits") (bound_bits cold) (bound_bits served)
          end)
        checkpoints;
      let cached, _, _ = Service.Core.tally live in
      total_cached := !total_cached + cached)
    [ 5; 11 ];
  Alcotest.(check bool) "corpus exercised the cached path" true (!total_cached > 0)

let test_down_in_support_invalidates () =
  let core = make_core () in
  let worst = Ev.Query (Ev.Worst { budget = None; max_nodes = None }) in
  let first = Service.Core.handle core worst in
  check_str "first solve is cold" "cold" (get_str "provenance" first);
  (* the worst-case support is non-empty under max_failures = 1 *)
  let support =
    match J.member "scenario" first with
    | J.List (J.List [ J.Int e; J.Int i ] :: _) -> (e, i)
    | j -> Alcotest.fail (Printf.sprintf "unexpected scenario %s" (J.to_string j))
  in
  (* a link in the cached support going down must force a re-solve even
     though the probability drift alone would be tolerated *)
  let lag, link = support in
  Alcotest.(check bool) "down event applied" true
    (is_ok (Service.Core.handle core (Ev.Event (Ev.Link_down { lag; link; at = 1e-3 }))));
  let second = Service.Core.handle core worst in
  check_str "support hit forces warm re-solve" "warm" (get_str "provenance" second)

(* --- worst answer = analyze ------------------------------------------------ *)

(* A worst query is a plain [analyze] of the live state under the
   configured options, with cuts on or off: same degradation and bound
   bits, same node count, same scenario. *)
let test_worst_is_analyze cuts () =
  let cfg = make_config ~cuts () in
  let core = Service.Core.create cfg fig1 in
  let served =
    Service.Core.handle core (Ev.Query (Ev.Worst { budget = None; max_nodes = None }))
  in
  check_str "cold solve" "cold" (get_str "provenance" served);
  let r =
    Raha.Analysis.analyze ~options:cfg.Service.Core.options fig1
      cfg.Service.Core.paths cfg.Service.Core.envelope
  in
  let float_bits key =
    match J.to_float (J.member key served) with
    | Some x -> Int64.bits_of_float x
    | None -> Alcotest.fail (Printf.sprintf "missing %s in %s" key (J.to_string served))
  in
  Alcotest.(check int64) "degradation bits = analyze"
    (Int64.bits_of_float r.Raha.Analysis.degradation)
    (float_bits "degradation");
  Alcotest.(check int64) "bound bits = analyze"
    (Int64.bits_of_float r.Raha.Analysis.bound)
    (bound_bits served);
  check_int "nodes = analyze" r.Raha.Analysis.nodes (get_int "nodes" served);
  let scenario =
    J.List
      (List.map
         (fun (e, i) -> J.List [ J.Int e; J.Int i ])
         (Failure.Scenario.links r.Raha.Analysis.scenario))
  in
  check_str "scenario = analyze" (J.to_string scenario)
    (J.to_string (J.member "scenario" served))

(* --- budget exhaustion -------------------------------------------------- *)

let test_budget_exhaustion_honest () =
  let core = make_core () in
  let starved =
    Service.Core.handle core
      (Ev.Query (Ev.Worst { budget = Some 2; max_nodes = Some 1 }))
  in
  Alcotest.(check bool) "still a response" true (is_ok starved);
  let status = get_str "status" starved in
  Alcotest.(check bool)
    (Printf.sprintf "no optimality claim under starvation (got %s)" status)
    true
    (status = "feasible" || status = "unknown");
  Alcotest.(check bool) "never a false cert failure" true
    (get_str "cert" starved <> "fail");
  (* the starved answer is cached like any other; a full-budget query
     must not reuse it blindly -- same state, zero drift, yet the next
     full query upgrades to optimal *)
  let full = Service.Core.handle core (Ev.Query (Ev.Worst { budget = None; max_nodes = None })) in
  check_str "full-budget query re-solves to optimal" "optimal" (get_str "status" full)

(* --- socket round trip -------------------------------------------------- *)

let test_socket_roundtrip () =
  (* Unix.fork is unavailable once earlier suites have spawned domains,
     so the server runs on a thread; select/read/write release the
     runtime lock, and a shutdown request makes [run] return. *)
  let socket =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "raha-test-%d.sock" (Unix.getpid ()))
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let server = Thread.create (fun () -> Service.Server.run ~socket (make_core ())) () in
  Fun.protect
    ~finally:(fun () -> try Unix.unlink socket with Unix.Unix_error _ -> ())
    (fun () ->
      let ask line =
        match Service.Server.request ~socket line with
        | Ok resp -> Result.get_ok (J.of_string resp)
        | Error m -> Alcotest.fail m
      in
      let status = ask {|{"op":"query","q":"status"}|} in
      Alcotest.(check bool) "status ok" true (is_ok status);
      check_str "status kind" "status" (get_str "kind" status);
      Alcotest.(check bool) "event ok" true
        (is_ok (ask {|{"op":"event","ev":"down","lag":3,"link":0,"t":7.5}|}));
      let now = ask {|{"op":"query","q":"now"}|} in
      check_str "now kind" "now" (get_str "kind" now);
      check_str "now certified" "ok" (get_str "cert" now);
      let bad = ask {|{"op":"query","q":"now","down":[[0,0],[0,0]]}|} in
      Alcotest.(check bool) "protocol error reported in-band" false (is_ok bad);
      (* a non-finite timestamp is refused in-band and leaves the clock
         finite, so later events still ingest *)
      List.iter
        (fun line -> Alcotest.(check bool) ("refused " ^ line) false (is_ok (ask line)))
        [
          {|{"op":"event","ev":"up","lag":3,"link":0,"t":1e400}|};
          {|{"op":"event","ev":"up","lag":3,"link":0,"t":"inf"}|};
        ];
      Alcotest.(check bool) "later event ok" true
        (is_ok (ask {|{"op":"event","ev":"up","lag":3,"link":0,"t":20}|}));
      Alcotest.(check (option (float 0.))) "clock follows the later event" (Some 20.)
        (J.to_float (J.member "clock" (ask {|{"op":"query","q":"status"}|})));
      let bye = ask {|{"op":"shutdown"}|} in
      Alcotest.(check bool) "bye" true (J.to_bool (J.member "bye" bye) = Some true);
      Thread.join server;
      Alcotest.(check bool) "socket unlinked on shutdown" false
        (Sys.file_exists socket))

(* --- json edge cases ---------------------------------------------------- *)

let test_json_edge_cases () =
  (* control characters escape to \uXXXX (or the short forms) and decode
     back to the same bytes *)
  let ctl = String.init 0x20 Char.chr in
  let s = J.to_string (J.String ctl) in
  Alcotest.(check bool) "no raw control bytes on the wire" false
    (String.exists (fun c -> Char.code c < 0x20) s);
  (match J.of_string s with
  | Ok (J.String s') -> check_str "control chars round trip" ctl s'
  | Ok j -> Alcotest.fail (J.to_string j)
  | Error m -> Alcotest.fail m);
  (* \uXXXX decoding: ASCII, 2-byte and 3-byte UTF-8 ranges *)
  let cases =
    [
      ({|"\u0041"|}, "A");
      ({|"\u00e9"|}, "\xc3\xa9");
      ({|"\u20ac"|}, "\xe2\x82\xac");
      ({|"\u001f"|}, "\x1f");
    ]
  in
  List.iter
    (fun (wire, expect) ->
      match J.of_string wire with
      | Ok (J.String s) -> check_str wire expect s
      | Ok j -> Alcotest.fail (J.to_string j)
      | Error m -> Alcotest.fail (Printf.sprintf "%s: %s" wire m))
    cases;
  List.iter
    (fun wire ->
      match J.of_string wire with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("bad \\u escape accepted: " ^ wire))
    [ {|"\uZZZZ"|}; {|"\u0_41"|} ];
  (* deeply nested objects and lists parse and round trip *)
  let depth = 500 in
  let rec deep n = if n = 0 then J.Int 7 else J.Obj [ ("k", J.List [ deep (n - 1) ]) ] in
  let j = deep depth in
  let s = J.to_string j in
  (match J.of_string s with
  | Ok j' -> check_str "deep nesting round trip" s (J.to_string j')
  | Error m -> Alcotest.fail m);
  (* non-finite floats: the wire encoding is the strings "nan" / "inf" /
     "-inf" (JSON has no literal for them); to_float maps them back *)
  check_str "nan encoding" {|"nan"|} (J.to_string (J.float Float.nan));
  check_str "inf encoding" {|"inf"|} (J.to_string (J.float Float.infinity));
  check_str "-inf encoding" {|"-inf"|} (J.to_string (J.float Float.neg_infinity));
  Alcotest.(check bool) "nan round trips" true
    (match J.of_string {|"nan"|} with
    | Ok j -> ( match J.to_float j with Some f -> Float.is_nan f | None -> false)
    | Error _ -> false);
  Alcotest.(check bool) "inf round trips" true
    (J.of_string {|"inf"|} |> Result.map J.to_float = Ok (Some Float.infinity));
  (* %.17g keeps the largest and smallest finite magnitudes bit-exact *)
  List.iter
    (fun v ->
      match J.of_string (J.to_string (J.float v)) with
      | Ok j ->
        Alcotest.(check bool)
          (Printf.sprintf "%h bit-exact" v)
          true
          (J.to_float j = Some v)
      | Error m -> Alcotest.fail m)
    [ Float.max_float; -.Float.max_float; Float.min_float; 4e-324; 0.; -0. ]

(* --- parser fuzzing ----------------------------------------------------- *)

(* Valid request lines: every request shape, plus strings with escapes
   and the non-finite float forms, so mutations reach every branch of
   the reader. *)
let fuzz_corpus =
  List.map
    (fun r -> J.to_string (Ev.json_of_request r))
    [
      Ev.Event (Ev.Link_down { lag = 1; link = 0; at = 3.5 });
      Ev.Event (Ev.Capacity { lag = 0; link = 2; capacity = 12.; at = 5e-3 });
      Ev.Event (Ev.Demand { src = 1; dst = 3; lo = 4.5; hi = Float.infinity; at = 6. });
      Ev.Subscribe { tolerance = Some 0.25 };
      Ev.Query (Ev.Worst { budget = Some 500; max_nodes = Some 10 });
      Ev.Query (Ev.Now { down = Some [ (0, 0); (2, 1) ] });
      Ev.Query Ev.Status;
      Ev.Shutdown;
    ]
  @ [
      {|{"op":"event","ev":"up","lag":-1,"link":0,"t":"nan"}|};
      {| { "op" : "query", "q" : "now", "down" : [ ] , "x": [true, false, null, {}] } |};
      {|{"op":"unknowné\n\t\"\\\/\b\f\r","v":[1.5e+300,-0.0,1E-7]}|};
    ]

(* [Json.of_string input] must return [Ok] or [Error], and so must
   [request_of_json] on a parsed value: neither may raise. *)
let total input =
  match J.of_string input with
  | Ok j -> (
    match Ev.request_of_json j with
    | Ok _ | Error _ -> true
    | exception e ->
      QCheck2.Test.fail_reportf "request_of_json on %S raised %s" input
        (Printexc.to_string e))
  | Error _ -> true
  | exception e ->
    QCheck2.Test.fail_reportf "of_string %S raised %s" input (Printexc.to_string e)

let prop_random_bytes =
  let alphabet = "{}[]\":,.-+eE0123456789\\u tfnl" in
  let json_char = QCheck2.Gen.oneofl (List.init (String.length alphabet) (String.get alphabet)) in
  QCheck2.Test.make ~name:"json: random bytes parse or fail in band" ~count:2000
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(oneof [ string_size (0 -- 64); string_size ~gen:json_char (0 -- 64) ])
    total

let prop_byte_flips =
  let corpus = Array.of_list fuzz_corpus in
  QCheck2.Test.make ~name:"json: single-byte flips of valid requests" ~count:3000
    ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(
      let* line = oneofa corpus in
      let* i = int_bound (String.length line - 1) in
      let+ c = char in
      String.mapi (fun j x -> if j = i then c else x) line)
    total

let test_truncations () =
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "valid: %s" line) true
        (Result.is_ok (Ev.request_of_line line) || Result.is_ok (J.of_string line));
      for l = 0 to String.length line - 1 do
        ignore (total (String.sub line 0 l))
      done)
    fuzz_corpus

(* --- journal ------------------------------------------------------------ *)

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "raha-test-%d-%s" (Unix.getpid ()) name)

let sample_events =
  [
    Ev.Link_down { lag = 0; link = 0; at = 1.5 };
    Ev.Link_up { lag = 0; link = 0; at = 2.25 };
    Ev.Capacity { lag = 1; link = 0; capacity = 17.5; at = 3. };
    Ev.Demand { src = 1; dst = 3; lo = 4.; hi = 9.; at = 4. };
    Ev.Link_down { lag = 2; link = 0; at = 5. };
  ]

let write_journal path events =
  (try Sys.remove path with Sys_error _ -> ());
  let j, r = Service.Journal.open_ path in
  Alcotest.(check bool) "fresh journal is clean" true
    (r.Service.Journal.damage = None && r.Service.Journal.events = []);
  List.iter
    (fun e ->
      let structural =
        match e with Ev.Capacity _ | Ev.Demand _ -> true | _ -> false
      in
      Service.Journal.append j ~structural e)
    events;
  Service.Journal.close j

let test_journal_roundtrip () =
  let path = tmp_path "journal-roundtrip.log" in
  write_journal path sample_events;
  let r = Service.Journal.scan path in
  Alcotest.(check bool) "clean" true (r.Service.Journal.damage = None);
  check_int "all events recovered" (List.length sample_events)
    (List.length r.Service.Journal.events);
  List.iter2
    (fun a b ->
      check_str "event bit-identical"
        (J.to_string (Ev.json_of_event a))
        (J.to_string (Ev.json_of_event b)))
    sample_events r.Service.Journal.events;
  Sys.remove path

let test_journal_corrupt_tail () =
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let write_file path s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  let path = tmp_path "journal-corrupt.log" in
  write_journal path sample_events;
  let clean = read_file path in
  (* truncated tail: cut the last record in half *)
  write_file path (String.sub clean 0 (String.length clean - 5));
  let r = Service.Journal.scan path in
  Alcotest.(check bool) "truncation detected" true
    (r.Service.Journal.damage <> None);
  check_int "all intact records recovered"
    (List.length sample_events - 1)
    (List.length r.Service.Journal.events);
  (* corrupt tail: flip a payload byte of the last record — the CRC
     catches it *)
  let flipped = Bytes.of_string clean in
  Bytes.set flipped
    (Bytes.length flipped - 3)
    (Char.chr (Char.code (Bytes.get flipped (Bytes.length flipped - 3)) lxor 0xFF));
  write_file path (Bytes.to_string flipped);
  let r = Service.Journal.scan path in
  Alcotest.(check bool) "corruption detected" true
    (r.Service.Journal.damage <> None);
  check_int "intact prefix recovered"
    (List.length sample_events - 1)
    (List.length r.Service.Journal.events);
  (* open_ truncates the damaged tail; appends extend a clean log *)
  let j, r = Service.Journal.open_ path in
  Alcotest.(check bool) "damage reported once" true
    (r.Service.Journal.damage <> None);
  Service.Journal.append j ~structural:true
    (Ev.Capacity { lag = 0; link = 0; capacity = 11.; at = 9. });
  Service.Journal.close j;
  let r = Service.Journal.scan path in
  Alcotest.(check bool) "log clean after truncate + append" true
    (r.Service.Journal.damage = None);
  check_int "prefix + new record" (List.length sample_events)
    (List.length r.Service.Journal.events);
  (* garbage from byte 0 recovers zero events, still no exception *)
  write_file path "not a journal at all";
  let r = Service.Journal.scan path in
  Alcotest.(check bool) "garbage detected" true (r.Service.Journal.damage <> None);
  check_int "no events from garbage" 0 (List.length r.Service.Journal.events);
  check_int "valid prefix empty" 0 r.Service.Journal.valid_bytes;
  Sys.remove path

(* A journal file is untrusted input. [open_] on every truncation and on
   every single-byte substitution of a valid journal must not raise; it
   recovers the records before the first damaged one, reports damage
   unless the cut falls on a record boundary, and truncates the file to
   the intact prefix. *)
let test_journal_mutations () =
  let path = tmp_path "journal-fuzz.log" in
  let read_file () =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let write_file s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  (* ends.(k) is the size of a journal holding the first k events *)
  let ends =
    Array.init
      (List.length sample_events + 1)
      (fun k ->
        write_journal path (List.filteri (fun i _ -> i < k) sample_events);
        String.length (read_file ()))
  in
  write_journal path sample_events;
  let clean = read_file () in
  let rendered es = List.map (fun e -> J.to_string (Ev.json_of_event e)) es in
  let intact_before offset =
    (* records lying wholly before [offset] *)
    let k = ref 0 in
    while !k < List.length sample_events && ends.(!k + 1) <= offset do
      incr k
    done;
    !k
  in
  let check what input ~expect_events ~expect_damage =
    write_file input;
    match Service.Journal.open_ path with
    | exception e -> Alcotest.failf "%s: open_ raised %s" what (Printexc.to_string e)
    | j, r ->
      Service.Journal.close j;
      let got = r.Service.Journal.events in
      let expected = List.filteri (fun i _ -> i < expect_events) sample_events in
      if rendered got <> rendered expected then
        Alcotest.failf "%s: recovered %d events, expected the first %d" what
          (List.length got) expect_events;
      if (r.Service.Journal.damage <> None) <> expect_damage then
        Alcotest.failf "%s: damage %s" what
          (Option.value r.Service.Journal.damage ~default:"none");
      if r.Service.Journal.valid_bytes <> ends.(expect_events) then
        Alcotest.failf "%s: valid_bytes %d, expected %d" what r.Service.Journal.valid_bytes
          ends.(expect_events);
      if String.length (read_file ()) <> ends.(expect_events) then
        Alcotest.failf "%s: file not truncated to the intact prefix" what
  in
  for l = 0 to String.length clean do
    let k = intact_before l in
    check (Printf.sprintf "truncated at %d" l) (String.sub clean 0 l) ~expect_events:k
      ~expect_damage:(l <> ends.(k))
  done;
  String.iteri
    (fun i c ->
      List.iter
        (fun x ->
          let flipped =
            String.mapi (fun j y -> if j = i then Char.chr (Char.code c lxor x) else y) clean
          in
          (* the CRC32 catches every single-byte change of a record *)
          check (Printf.sprintf "byte %d xor %d" i x) flipped ~expect_events:(intact_before i)
            ~expect_damage:true)
        [ 0x01; 0x80; 0xFF ])
    clean;
  Sys.remove path

(* --- crash recovery ----------------------------------------------------- *)

(* A journaled core ingests a stream and "crashes" (we simply stop using
   it); a second core recovers from the journal alone. Its answers must
   be bit-identical (stripped) to a third core that ingested every event
   directly — estimators, topology, demand envelope and invalidation
   provenance all survive the crash. Run at domains 1 and 4. *)
let test_crash_recovery_replay () =
  List.iter
    (fun domains ->
      let path = tmp_path (Printf.sprintf "journal-recovery-%d.log" domains) in
      (try Sys.remove path with Sys_error _ -> ());
      let events =
        telemetry ~seed:7 ~horizon:120.
        @ [
            Ev.Capacity { lag = 0; link = 0; capacity = 9.; at = 130. };
            Ev.Demand { src = 1; dst = 3; lo = 6.; hi = 16.; at = 131. };
          ]
      in
      (* arm 1: journaled daemon, SIGKILLed after the stream (no clean
         shutdown: the journal fd is simply abandoned) *)
      let crashed = make_core ~domains () in
      let j, _ = Service.Journal.open_ path in
      Service.Core.attach_journal crashed j;
      List.iter
        (fun e ->
          Alcotest.(check bool) "event accepted" true
            (is_ok (Service.Core.handle crashed (Ev.Event e))))
        events;
      (* arm 2: restart — recover from the journal through the normal
         ingest path *)
      let recovered = make_core ~domains () in
      let r = Service.Journal.scan path in
      Alcotest.(check bool) "journal clean" true (r.Service.Journal.damage = None);
      let accepted, rejected = Service.Core.replay recovered r.Service.Journal.events in
      check_int "all events replayed" (List.length events) accepted;
      check_int "none rejected" 0 rejected;
      (* arm 3: uninterrupted run over the same events *)
      let direct = make_core ~domains () in
      List.iter (fun e -> ignore (Service.Core.handle direct (Ev.Event e))) events;
      (* both cores start cold (the cache died with the crash), so the
         full answer sequences must match as strings *)
      let queries =
        [
          Ev.Query Ev.Status;
          Ev.Query (Ev.Worst { budget = None; max_nodes = None });
          Ev.Query (Ev.Now { down = None });
          Ev.Query (Ev.Now { down = Some [ (2, 0) ] });
          Ev.Query Ev.Status;
        ]
      in
      List.iteri
        (fun i q ->
          check_str
            (Printf.sprintf "domains %d: answer %d identical after recovery"
               domains i)
            (render (Service.Core.handle direct q))
            (render (Service.Core.handle recovered q)))
        queries;
      Sys.remove path)
    [ 1; 4 ]

(* --- demand events drive invalidation ----------------------------------- *)

let test_demand_event_invalidates () =
  let core = make_core () in
  let worst = Ev.Query (Ev.Worst { budget = None; max_nodes = None }) in
  let first = Service.Core.handle core worst in
  check_str "first solve is cold" "cold" (get_str "provenance" first);
  let second = Service.Core.handle core worst in
  check_str "re-serve is cached" "cached" (get_str "provenance" second);
  (* a demand re-forecast is structural: engine, cuts and cache die *)
  let resp =
    Service.Core.handle core
      (Ev.Event (Ev.Demand { src = 1; dst = 3; lo = 2.; hi = 4.; at = 1. }))
  in
  Alcotest.(check bool) "demand accepted" true (is_ok resp);
  Alcotest.(check bool) "demand is structural" true
    (J.to_bool (J.member "structural" resp) = Some true);
  let third = Service.Core.handle core worst in
  check_str "demand event forces cold re-solve" "cold" (get_str "provenance" third);
  (* and the answer is genuinely recomputed over the new envelope: a
     fresh core configured identically agrees *)
  let fresh = make_core () in
  ignore
    (Service.Core.handle fresh
       (Ev.Event (Ev.Demand { src = 1; dst = 3; lo = 2.; hi = 4.; at = 1. })));
  check_str "recomputed over the new envelope"
    (render (Service.Core.handle fresh worst))
    (render third)

(* --- alerting unit tests ------------------------------------------------ *)

module Al = Service.Alerting

(* A stage answer [v] and the interval it proves, normalized by 1: a
   replayed witness or a fast answer proves a lower end only, the bound
   an upper end only, a proved deep answer both. *)
let proves ?(lo = neg_infinity) ?(hi = infinity) v =
  Some { Al.fields = [ ("v", J.float v) ]; evidence = { Raha.Alert.lo; hi; per = 1. } }

let lower v = proves ~lo:v v
let upper v = proves ~hi:v v
let both v = proves ~lo:v ~hi:v v

(* a witness stage that found no scenario, no bound, a failed stage *)
let no_witness = None
let no_bound = None
let failed = None

let drain_sub al ~id =
  let rec go acc =
    match Al.next_chunk al ~id with
    | None -> List.rev acc
    | Some (line, off) ->
      Al.advance al ~id (String.length line - off);
      go (line :: acc)
  in
  go []

let push_of line =
  let j = Result.get_ok (J.of_string (String.trim line)) in
  (get_str "push" j, get_str "stage" j)

let test_alerting_crossings () =
  let al = Al.create ~tolerance:0.5 () in
  Al.subscribe al ~id:1 ~tolerance:None;
  Al.subscribe al ~id:2 ~tolerance:(Some 2.0) (* less sensitive *);
  let deep_calls = ref 0 in
  let deep v () =
    incr deep_calls;
    both v
  in
  let no_deep () = Alcotest.fail "deep stage must not run" in
  (* everyone's fast stage exceeds: both alert on fast, deep never runs *)
  Al.evaluate al ~witness:no_witness ~bound:no_bound ~fast:(fun () -> lower 3.0) ~deep:no_deep ~flush:(fun () -> ());
  Alcotest.(check (list (pair string string))) "sub 1 fast alert"
    [ ("alert", "fast") ]
    (List.map push_of (drain_sub al ~id:1));
  Alcotest.(check (list (pair string string))) "sub 2 fast alert"
    [ ("alert", "fast") ]
    (List.map push_of (drain_sub al ~id:2));
  (* same result again: no re-notification while alerting *)
  Al.evaluate al ~witness:no_witness ~bound:no_bound ~fast:(fun () -> lower 3.0) ~deep:no_deep ~flush:(fun () -> ());
  check_int "no repeat for sub 1" 0 (List.length (drain_sub al ~id:1));
  (* fast drops below sub 2's tolerance but deep still exceeds it: sub 2
     stays alerting silently; sub 1 (alerting, fast 1.0 > 0.5) too *)
  Al.evaluate al ~witness:no_witness ~bound:no_bound ~fast:(fun () -> lower 1.0) ~deep:(deep 2.5) ~flush:(fun () -> ());
  check_int "deep ran once" 1 !deep_calls;
  check_int "sub 1 silent" 0 (List.length (drain_sub al ~id:1));
  check_int "sub 2 silent" 0 (List.length (drain_sub al ~id:2));
  (* both stages quiet: both clear *)
  Al.evaluate al ~witness:no_witness ~bound:no_bound ~fast:(fun () -> lower 0.1) ~deep:(deep 0.2) ~flush:(fun () -> ());
  Alcotest.(check (list (pair string string))) "sub 1 clears"
    [ ("clear", "deep") ]
    (List.map push_of (drain_sub al ~id:1));
  Alcotest.(check (list (pair string string))) "sub 2 clears"
    [ ("clear", "deep") ]
    (List.map push_of (drain_sub al ~id:2));
  (* quiet -> deep-stage alert for the sensitive subscriber only *)
  Al.evaluate al ~witness:no_witness ~bound:no_bound ~fast:(fun () -> lower 0.3) ~deep:(deep 1.0) ~flush:(fun () -> ());
  Alcotest.(check (list (pair string string))) "sub 1 deep alert"
    [ ("alert", "deep") ]
    (List.map push_of (drain_sub al ~id:1));
  check_int "sub 2 stays quiet" 0 (List.length (drain_sub al ~id:2));
  (* an unusable stage freezes state: no spurious clear on solver failure *)
  Al.evaluate al ~witness:no_witness ~bound:no_bound ~fast:(fun () -> failed) ~deep:no_deep
    ~flush:(fun () -> ());
  check_int "unusable fast: silent" 0 (List.length (drain_sub al ~id:1));
  let s = Al.stats al in
  check_int "alerts" 3 s.Al.alerts;
  check_int "clears" 2 s.Al.clears;
  check_int "nothing dropped" 0 s.Al.dropped

(* The bound settles a subscriber whose tolerance it does not exceed:
   an alerting one clears from the bound stage, flushed before the fast
   stage runs, and neither later stage sends it anything; it no longer
   needs the deep stage. A witness above the tolerance overrides the
   bound, and a fast or deep answer above the bound counts in bbad. *)
let test_alerting_bound () =
  let al = Al.create ~tolerance:0.5 () in
  Al.subscribe al ~id:1 ~tolerance:None;
  Al.subscribe al ~id:2 ~tolerance:(Some 2.0);
  let flush () = () in
  let no_deep () = Alcotest.fail "deep stage must not run" in
  Al.evaluate al ~witness:no_witness ~bound:no_bound ~fast:(fun () -> lower 3.0) ~deep:no_deep ~flush;
  check_int "both alerted" 2 (List.length (drain_sub al ~id:1 @ drain_sub al ~id:2));
  (* bound 1.5 settles sub 2 only: its clear is on the wire before the
     fast stage starts; sub 1 still needs the deep stage *)
  let flushed = ref [] in
  let flush () = flushed := !flushed @ List.map push_of (drain_sub al ~id:2) in
  let deep_calls = ref 0 in
  Al.evaluate al ~witness:no_witness ~bound:(upper 1.5)
    ~fast:(fun () ->
      Alcotest.(check (list (pair string string))) "bound clear flushed before the fast stage"
        [ ("clear", "bound") ] !flushed;
      lower 0.2)
    ~deep:(fun () ->
      incr deep_calls;
      both 0.3)
    ~flush;
  check_int "the deep stage ran for sub 1" 1 !deep_calls;
  Alcotest.(check (list (pair string string))) "sub 1 clears on the deep stage"
    [ ("clear", "deep") ] (List.map push_of (drain_sub al ~id:1));
  check_int "sub 2: nothing after the bound clear" 1 (List.length !flushed);
  (* a bound at or below every tolerance settles everyone: no deep
     stage, and a fast answer above the bound (rounding) alerts no one
     but counts in bbad *)
  Al.evaluate al ~witness:no_witness ~bound:(upper 0.5) ~fast:(fun () -> lower 0.7) ~deep:no_deep
    ~flush:(fun () -> ());
  check_int "settled: silent" 0 (List.length (drain_sub al ~id:1 @ drain_sub al ~id:2));
  (* a witness above sub 2's tolerance overrides a (lower) bound *)
  Al.evaluate al ~witness:(lower 2.5) ~bound:(upper 0.5) ~fast:(fun () -> lower 2.5)
    ~deep:no_deep ~flush:(fun () -> ());
  Alcotest.(check (list (pair string string))) "sub 2: witness alert"
    [ ("alert", "witness") ] (List.map push_of (drain_sub al ~id:2));
  Alcotest.(check (list (pair string string))) "sub 1: witness alert"
    [ ("alert", "witness") ] (List.map push_of (drain_sub al ~id:1));
  let s = Al.stats al in
  check_int "clears" 2 s.Al.clears;
  check_int "one from the bound" 1 s.Al.bound;
  check_int "two answers above the bound" 2 s.Al.bbad;
  check_int "one deep stage" 1 s.Al.deep_runs

(* Only a proved deep answer clears: an unproven one (a lower end only,
   as a budget-stopped solve proves) below the tolerance leaves the
   subscriber open, so it stays alerting and gets nothing; the deep
   stage still ran. A proved answer at the same value then clears. *)
let test_alerting_unproven_deep () =
  let al = Al.create ~tolerance:0.5 () in
  Al.subscribe al ~id:1 ~tolerance:None;
  let flush () = () in
  Al.evaluate al ~witness:no_witness ~bound:no_bound ~fast:(fun () -> lower 3.0)
    ~deep:(fun () -> Alcotest.fail "deep stage must not run") ~flush;
  Alcotest.(check (list (pair string string))) "fast alert"
    [ ("alert", "fast") ] (List.map push_of (drain_sub al ~id:1));
  Al.evaluate al ~witness:no_witness ~bound:no_bound ~fast:(fun () -> lower 0.1)
    ~deep:(fun () -> lower 0.2) ~flush;
  check_int "unproven deep: nothing sent" 0 (List.length (drain_sub al ~id:1));
  let s = Al.stats al in
  check_int "the deep stage ran" 1 s.Al.deep_runs;
  check_int "no clear" 0 s.Al.clears;
  Al.evaluate al ~witness:no_witness ~bound:no_bound ~fast:(fun () -> lower 0.1)
    ~deep:(fun () -> both 0.2) ~flush;
  Alcotest.(check (list (pair string string))) "still alerting: a proved answer clears"
    [ ("clear", "deep") ] (List.map push_of (drain_sub al ~id:1));
  check_int "two deep stages" 2 (Al.stats al).Al.deep_runs

let test_alerting_backpressure () =
  let al = Al.create ~queue_cap:3 ~tolerance:0.5 () in
  Al.subscribe al ~id:1 ~tolerance:None;
  for i = 1 to 5 do
    Al.enqueue al ~id:1 (Printf.sprintf "line %d" i)
  done;
  let s = Al.stats al in
  check_int "oldest two dropped" 2 s.Al.dropped;
  Alcotest.(check (list string)) "newest three kept"
    [ "line 3\n"; "line 4\n"; "line 5\n" ]
    (drain_sub al ~id:1);
  (* partial write progress: the in-flight line is never dropped *)
  Al.enqueue al ~id:1 "abcdef";
  (match Al.next_chunk al ~id:1 with
  | Some (line, 0) -> check_str "in flight" "abcdef\n" line
  | _ -> Alcotest.fail "expected a chunk");
  Al.advance al ~id:1 3;
  for i = 1 to 4 do
    Al.enqueue al ~id:1 (Printf.sprintf "overflow %d" i)
  done;
  (match Al.next_chunk al ~id:1 with
  | Some (line, off) ->
    check_str "still the in-flight line" "abcdef\n" line;
    check_int "offset preserved" 3 off
  | None -> Alcotest.fail "in-flight line vanished");
  Al.unsubscribe al ~id:1;
  check_int "unsubscribed" 0 (Al.subscribers al)

(* --- alerting end to end ------------------------------------------------ *)

(* Drive the real two-stage pipeline through Core: a sensitive
   subscriber (tolerance 0) must see an alert once a structural event
   leaves the worst case degraded, and a clear once demand re-forecasts
   shrink the envelope until no probable single failure loses traffic.
   An insensitive subscriber (huge tolerance) sees nothing. *)
let test_alert_pipeline_end_to_end () =
  let core = make_core () in
  let al = Service.Core.alerting core in
  Al.subscribe al ~id:1 ~tolerance:(Some 0.);
  Al.subscribe al ~id:2 ~tolerance:(Some 1e6);
  (* structural trigger: shrink a capacity — the fig1 worst case loses
     traffic under single failures at this demand, so normalized > 0 *)
  let resp =
    Service.Core.handle core
      (Ev.Event (Ev.Capacity { lag = 0; link = 0; capacity = 10.; at = 1. }))
  in
  Alcotest.(check bool) "capacity accepted" true (is_ok resp);
  Service.Core.evaluate_alert core;
  let lines = drain_sub al ~id:1 in
  check_int "one alert notification" 1 (List.length lines);
  let j = Result.get_ok (J.of_string (String.trim (List.hd lines))) in
  check_str "push kind" "alert" (get_str "push" j);
  Alcotest.(check bool) "normalized present and positive" true
    (match J.to_float (J.member "normalized" j) with
    | Some v -> v > 0.
    | None -> false);
  (* a deep-stage notification carries the Report summary row *)
  (if get_str "stage" j = "deep" then
     match J.to_str (J.member "report" j) with
     | Some row ->
       Alcotest.(check bool) "summary row has fields" true
         (String.contains row ',')
     | None -> Alcotest.fail "deep notification without report");
  check_int "insensitive subscriber silent" 0 (List.length (drain_sub al ~id:2));
  (* recovery: shrink the demand envelope until nothing is lost *)
  List.iter
    (fun (src, dst) ->
      Alcotest.(check bool) "demand accepted" true
        (is_ok
           (Service.Core.handle core
              (Ev.Event (Ev.Demand { src; dst; lo = 0.01; hi = 0.02; at = 2. })))))
    [ (1, 3); (2, 3) ];
  Service.Core.evaluate_alert core;
  let lines = drain_sub al ~id:1 in
  check_int "one clear notification" 1 (List.length lines);
  let j = Result.get_ok (J.of_string (String.trim (List.hd lines))) in
  check_str "push kind" "clear" (get_str "push" j);
  check_str "clear comes from the deep stage" "deep" (get_str "stage" j);
  Alcotest.(check bool) "clear carries the deep report" true
    (J.to_str (J.member "report" j) <> None);
  check_int "insensitive subscriber still silent" 0
    (List.length (drain_sub al ~id:2));
  let s = Al.stats al in
  check_int "dropped=0" 0 s.Al.dropped;
  Alcotest.(check bool) "stats tally" true (s.Al.alerts >= 1 && s.Al.clears >= 1);
  (* alert evaluations never touch the query tallies *)
  let c, w, k = Service.Core.tally core in
  check_int "no cached queries billed" 0 c;
  check_int "no warm queries billed" 0 w;
  check_int "no cold queries billed" 0 k

(* --- one MILP per structural event ---------------------------------------

   On a point envelope the fast stage is the worst query itself: it
   fills the query cache, the deep stage re-reads it, and so does the
   next worst query. Solves are counted where they happen, in
   Branch_bound. *)

let point_envelope = Traffic.Envelope.fixed fig1_demand
let capacity_event = Ev.Event (Ev.Capacity { lag = 0; link = 0; capacity = 10.; at = 1. })
let worst_query = Ev.Query (Ev.Worst { budget = None; max_nodes = None })

(* one structural event and one alert evaluation with a tolerance-0
   subscriber and one at tolerance 2, above the fast answer (0.97 on
   the point envelope, 1.39 on the variable one) and below the bound
   (the total demand, 3.06 and 4.58): no early stage decides it, so it
   needs the deep stage; returns the core and the evaluation's
   branch-and-bound solves *)
let point_event ?time_limit envelope =
  let core = Service.Core.create (make_config ?time_limit ~envelope ()) fig1 in
  let al = Service.Core.alerting core in
  Al.subscribe al ~id:1 ~tolerance:(Some 0.);
  Al.subscribe al ~id:2 ~tolerance:(Some 2.);
  Alcotest.(check bool) "capacity accepted" true (is_ok (Service.Core.handle core capacity_event));
  let s0 = Milp.Lp_stats.read Milp.Lp_stats.bb_solves () in
  Service.Core.evaluate_alert core;
  let solves = Milp.Lp_stats.read Milp.Lp_stats.bb_solves () - s0 in
  check_int "the deep stage ran" 1 (Al.stats al).Al.deep_runs;
  (core, solves)

let test_point_envelope_one_solve () =
  let core, solves = point_event point_envelope in
  check_int "one branch-and-bound solve per structural event" 1 solves;
  check_int "the tolerance-0 subscriber alerted" 1 (Al.stats (Service.Core.alerting core)).Al.alerts;
  (* alert evaluations never touch the query tallies *)
  let c, w, k = Service.Core.tally core in
  check_int "no queries billed" 0 (c + w + k);
  (* the next worst query re-serves the fast stage's answer, which is
     what a fresh core solving cold says *)
  let s0 = Milp.Lp_stats.read Milp.Lp_stats.bb_solves () in
  let served = Service.Core.handle core worst_query in
  check_int "the worst query solves nothing" 0 (Milp.Lp_stats.read Milp.Lp_stats.bb_solves () - s0);
  check_str "served from the cache" "cached" (get_str "provenance" served);
  let fresh = Service.Core.create (make_config ~envelope:point_envelope ()) fig1 in
  ignore (Service.Core.handle fresh capacity_event);
  let cold = Service.Core.handle fresh worst_query in
  check_str "the fresh core solves cold" "cold" (get_str "provenance" cold);
  check_str "cached answer = fresh cold answer" (project cold) (project served);
  let c, w, k = Service.Core.tally core in
  check_int "one cached query" 1 c;
  check_int "no warm or cold query" 0 (w + k)

(* A fast stage starved by its quarter budget leaves an unproven answer
   in the cache, which the deep stage never re-reads: it re-solves. *)
let test_point_envelope_starved_fast_stage () =
  let _, solves = point_event ~time_limit:1e-9 point_envelope in
  check_int "the deep stage re-solves the unproven fast answer" 2 solves

(* A variable envelope keeps both stages: the fast one at the peak, the
   deep one over the envelope. *)
let test_variable_envelope_two_stages () =
  let _, solves = point_event (Traffic.Envelope.around ~slack:0.5 fig1_demand) in
  check_int "fast and deep solves" 2 solves

(* --- witness stage ----------------------------------------------------------

   On a structural event the replayed witness alerts before any
   branch-and-bound solve starts: its push is queued and flushed while
   the solve counter has not moved. The fast stage that follows still
   solves, and sends the alerted subscriber nothing more. *)

let test_witness_alert_before_milp () =
  let core = Service.Core.create (make_config ~envelope:point_envelope ()) fig1 in
  let al = Service.Core.alerting core in
  Al.subscribe al ~id:1 ~tolerance:(Some 0.);
  Alcotest.(check bool) "capacity accepted" true (is_ok (Service.Core.handle core capacity_event));
  let solves () = Milp.Lp_stats.read Milp.Lp_stats.bb_solves () in
  let overlays () = Milp.Lp_stats.read Milp.Lp_stats.batch_overlays () in
  let s0 = solves () and o0 = overlays () in
  let flushes = ref [] in
  let flush () = flushes := (solves () - s0, drain_sub al ~id:1) :: !flushes in
  Service.Core.evaluate_alert ~flush core;
  (match List.rev !flushes with
  | (before, [ line ]) :: rest ->
    check_int "no branch-and-bound solve before the witness push" 0 before;
    Alcotest.(check (pair string string)) "a witness alert" ("alert", "witness") (push_of line);
    check_int "no second alert" 0 (List.length (List.concat_map snd rest))
  | _ -> Alcotest.fail "the first flush carried no single alert");
  check_int "the fast stage still solved" 1 (solves () - s0);
  (* the engine's healthy solve and the 6 candidates (empty scenario,
     5 whole-LAG failures), once each: the solve's plunge hints reuse
     the witness stage's scores *)
  check_int "no candidate replayed twice" 7 (overlays () - o0);
  (* a second degrading event: the subscriber is still alerting *)
  let again = Ev.Event (Ev.Capacity { lag = 0; link = 0; capacity = 9.; at = 2. }) in
  Alcotest.(check bool) "capacity accepted" true (is_ok (Service.Core.handle core again));
  Service.Core.evaluate_alert core;
  check_int "nothing repeated" 0 (List.length (drain_sub al ~id:1));
  let st = Al.stats al in
  check_int "the witness push counts in alerts" 1 st.Al.alerts;
  check_int "from the witness stage" 1 st.Al.witness;
  check_int "no witness above the fast stage" 0 st.Al.wbad;
  let status = Service.Core.handle core (Ev.Query Ev.Status) in
  check_int "status reports it" 1 (get_int "witness" (J.member "alerting" status))

(* --- bound stage ----------------------------------------------------------

   Once the demand drains, the total demand at the envelope's upper
   corner, and with it every answer, is 0: the bound settles the
   tolerance-0 subscriber, whose clear is queued and flushed while the
   solve counter has not moved, and the deep stage is not needed. The
   fast stage still solves, keeping the query cache warm. *)
let test_bound_clear_before_milp () =
  let core = Service.Core.create (make_config ~envelope:point_envelope ()) fig1 in
  let al = Service.Core.alerting core in
  Al.subscribe al ~id:1 ~tolerance:(Some 0.);
  Alcotest.(check bool) "capacity accepted" true (is_ok (Service.Core.handle core capacity_event));
  Service.Core.evaluate_alert core;
  check_int "alerted" 1 (List.length (drain_sub al ~id:1));
  List.iter
    (fun (src, dst) ->
      Alcotest.(check bool) "demand accepted" true
        (is_ok
           (Service.Core.handle core
              (Ev.Event (Ev.Demand { src; dst; lo = 0.; hi = 0.; at = 2. })))))
    [ (1, 3); (2, 3) ];
  let solves () = Milp.Lp_stats.read Milp.Lp_stats.bb_solves () in
  let deep0 = (Al.stats al).Al.deep_runs and s0 = solves () in
  let flushes = ref [] in
  let flush () = flushes := (solves () - s0, drain_sub al ~id:1) :: !flushes in
  Service.Core.evaluate_alert ~flush core;
  (match List.rev !flushes with
  | [ (before, [ line ]) ] ->
    check_int "no branch-and-bound solve before the bound push" 0 before;
    Alcotest.(check (pair string string)) "a bound clear" ("clear", "bound") (push_of line);
    let j = Result.get_ok (J.of_string (String.trim line)) in
    Alcotest.(check (option (float 0.))) "the bound is 0" (Some 0.) (J.to_float (J.member "bound" j))
  | _ -> Alcotest.fail "expected one flush carrying one clear");
  check_int "the fast stage still solved" 1 (solves () - s0);
  let st = Al.stats al in
  check_int "no deep stage" deep0 st.Al.deep_runs;
  check_int "one clear" 1 st.Al.clears;
  check_int "from the bound" 1 st.Al.bound;
  check_int "no answer above the bound" 0 st.Al.bbad;
  let status = Service.Core.handle core (Ev.Query Ev.Status) in
  check_int "status reports it" 1 (get_int "bound" (J.member "alerting" status))

(* The witness pool keeps the scenarios of the last proved worst
   answers, distinct and at most 4, however many events pass. A pooled
   scenario is re-checked before each replay: once telemetry pushes its
   probability below the threshold it is not replayed (no overlay
   solve), while an admissible one costs exactly one. *)
let test_witness_pool () =
  let spec =
    { Raha.Bilevel.default_spec with Raha.Bilevel.max_failures = Some 2; threshold = Some 5e-5 }
  in
  let core =
    Service.Core.create (make_config ~spec ~drift_tol:1e-3 ~envelope:point_envelope ()) fig1
  in
  Al.subscribe (Service.Core.alerting core) ~id:1 ~tolerance:(Some 1e6);
  let seen = ref [] and clock = ref 0. in
  let event e =
    Alcotest.(check bool) "event accepted" true (is_ok (Service.Core.handle core (Ev.Event e)))
  in
  let record () =
    match Service.Core.witness_pool core with
    | s :: _ -> seen := s :: List.filter (fun p -> not (Failure.Scenario.equal p s)) !seen
    | [] -> Alcotest.fail "a proved answer left the pool empty"
  in
  (* capacity changes move the worst pair of failures; each is a
     structural event and an alert evaluation *)
  List.iter
    (fun (lag, capacity) ->
      clock := !clock +. 1.;
      event (Ev.Capacity { lag; link = 0; capacity; at = !clock });
      Service.Core.evaluate_alert core;
      record ())
    [ (0, 2.); (0, 8.); (1, 2.); (1, 8.); (2, 1.); (2, 9.) ];
  (* then links BD, CD and AD in turn fail once, briefly: each becomes
     too reliable for a double failure to reach the threshold, and the
     next worst query (warm on the drift) proves another pair *)
  List.iter
    (fun lag ->
      event (Ev.Link_down { lag; link = 0; at = !clock +. 1. });
      event (Ev.Link_up { lag; link = 0; at = !clock +. 1.001 });
      clock := !clock +. 1000.;
      event (Ev.Capacity { lag = 4; link = 0; capacity = 4.; at = !clock });
      ignore (Service.Core.handle core worst_query);
      record ())
    [ 0; 1; 2 ];
  let pool = Service.Core.witness_pool core in
  check_int "capped at 4" (min 4 (List.length !seen)) (List.length pool);
  Alcotest.(check bool) "more distinct proved answers than the cap" true (List.length !seen > 4);
  Alcotest.(check bool) "the newest first" true
    (List.for_all2 Failure.Scenario.equal pool (List.filteri (fun i _ -> i < 4) !seen));
  (* a two-failure scenario that is no seed: it is replayed only while
     the threshold admits it *)
  let s = Failure.Scenario.of_links fig1 [ (2, 0); (4, 0) ] in
  let state = Service.State.create ~envelope:point_envelope fig1 in
  let overlays () =
    let topo = Service.State.current_topology state in
    let count pooled =
      let n0 = Milp.Lp_stats.read Milp.Lp_stats.batch_overlays () in
      let screen = Raha.Analysis.screening_engine ~spec topo fig1_paths point_envelope in
      ignore (Raha.Analysis.screen_candidates ?screen ~pooled ~spec topo fig1_paths point_envelope);
      Milp.Lp_stats.read Milp.Lp_stats.batch_overlays () - n0
    in
    count [ s ] - count []
  in
  check_int "admissible: replayed once" 1 (overlays ());
  (* link AD fails once, briefly, then stays up: its estimate falls to
     about 1e-6 and the scenario's probability below the threshold *)
  List.iter
    (fun e -> Alcotest.(check bool) "telemetry accepted" true (Service.State.apply state e |> Result.is_ok))
    [ Ev.Link_down { lag = 2; link = 0; at = 1. }; Ev.Link_up { lag = 2; link = 0; at = 1.001 };
      Ev.Link_down { lag = 0; link = 0; at = 1000. }; Ev.Link_up { lag = 0; link = 0; at = 1000.01 } ];
  Alcotest.(check bool) "now below the threshold" true
    (Failure.Scenario.prob (Service.State.current_topology state) s < 5e-5);
  check_int "inadmissible: never replayed" 0 (overlays ())

(* --- wire-format pin --------------------------------------------------------

   One core driven through a fixed script: worst queries served cold,
   cached, warm after a down link in the support, warm after drift, and
   unproven under a pivot budget or a node cap; now and status queries;
   structural events, each followed by an alert evaluation past a
   tolerance-0 subscriber and a default-tolerance one. Every response
   (after [strip_volatile]) and every push line, as sent, is digested,
   on a point and on a variable envelope: pushes carry no wall clock,
   and a change to the query, cache or alert paths must leave every
   byte as it was. *)

(* the script's transcript and the provenance of its worst answers *)
let wire_script ~envelope ~demand =
  let core = Service.Core.create (make_config ~drift_tol:0.05 ~envelope ()) fig1 in
  let al = Service.Core.alerting core in
  Al.subscribe al ~id:1 ~tolerance:(Some 0.);
  Al.subscribe al ~id:2 ~tolerance:None;
  let out = Buffer.create 4096 and provenances = ref [] in
  let handle req =
    let j = Service.Core.handle core req in
    Buffer.add_string out (render j ^ "\n");
    if J.to_str (J.member "kind" j) = Some "worst" then
      provenances := get_str "provenance" j :: !provenances;
    j
  in
  let worst ?budget ?max_nodes () = handle (Ev.Query (Ev.Worst { budget; max_nodes })) in
  let now down = ignore (handle (Ev.Query (Ev.Now { down }))) in
  let status () = ignore (handle (Ev.Query Ev.Status)) in
  let event e = Alcotest.(check bool) "event accepted" true (is_ok (handle (Ev.Event e))) in
  let structural e =
    event e;
    Service.Core.evaluate_alert core;
    List.iter
      (fun id ->
        List.iter
          (fun l -> Buffer.add_string out (Printf.sprintf "push %d %s" id l))
          (drain_sub al ~id))
      [ 1; 2 ]
  in
  let lag, link =
    match J.member "scenario" (worst ()) with
    | J.List (J.List [ J.Int e; J.Int i ] :: _) -> (e, i)
    | j -> Alcotest.fail (Printf.sprintf "empty worst-case support %s" (J.to_string j))
  in
  ignore (worst ());
  now None;
  event (Ev.Link_down { lag; link; at = 1e-3 });
  status ();
  ignore (worst ());
  now None;
  now (Some [ (1, 0) ]);
  event (Ev.Link_up { lag; link; at = 2. });
  event (Ev.Link_down { lag = 4; link = 0; at = 3. });
  event (Ev.Link_up { lag = 4; link = 0; at = 4. });
  status ();
  ignore (worst ());
  event (Ev.Link_down { lag = 3; link = 0; at = 5. });
  event (Ev.Link_up { lag = 3; link = 0; at = 6. });
  status ();
  ignore (worst ~budget:2 ());
  ignore (worst ~max_nodes:1 ());
  ignore (worst ());
  ignore (worst ());
  structural (Ev.Capacity { lag = 0; link = 0; capacity = 10.; at = 7. });
  ignore (worst ());
  List.iter (fun (src, dst) -> structural (demand ~src ~dst)) [ (1, 3); (2, 3) ];
  ignore (worst ());
  now None;
  status ();
  (List.rev !provenances, Buffer.contents out)

let test_wire_format_pin () =
  let point ~src ~dst = Ev.Demand { src; dst; lo = 0.02; hi = 0.02; at = 8. } in
  let variable ~src ~dst = Ev.Demand { src; dst; lo = 0.01; hi = 0.02; at = 8. } in
  let p_prov, p_out = wire_script ~envelope:point_envelope ~demand:point in
  let v_prov, v_out =
    wire_script ~envelope:(Traffic.Envelope.around ~slack:0.5 fig1_demand) ~demand:variable
  in
  (* cold; cached; warm on a down link in the support (drift 0.01 is
     under the tolerance); warm on drift; warm under a pivot budget,
     whose unproven answer is never re-served, so the node-capped query
     is warm too (on the variable envelope it is unproven again, and so
     is warm once more); then cached. On the point envelope the fast
     stage is the worst query, so the queries after structural events
     are cached; on the variable one a fast stage that alerted leaves
     the next query cold. *)
  Alcotest.(check (list string)) "point envelope: worst provenances"
    [ "cold"; "cached"; "warm"; "warm"; "warm"; "warm"; "cached"; "cached"; "cached"; "cached" ]
    p_prov;
  Alcotest.(check (list string)) "variable envelope: worst provenances"
    [ "cold"; "cached"; "warm"; "warm"; "warm"; "warm"; "warm"; "cached"; "cold"; "cached" ]
    v_prov;
  check_str "wire digest" "2036d3ba0185939f6cfa1496538c0afb" (Digest.to_hex (Digest.string (p_out ^ v_out)))

(* --- framing regressions ------------------------------------------------ *)

let with_server f =
  let socket = tmp_path "framing.sock" in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let server =
    Thread.create (fun () -> Service.Server.run ~socket (make_core ())) ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Service.Server.request ~socket ~retries:0 {|{"op":"shutdown"}|})
       with _ -> ());
      Thread.join server;
      try Unix.unlink socket with Unix.Unix_error _ -> ())
    (fun () -> f socket)

let connect_raw socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go attempt =
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error _ when attempt < 100 ->
      Unix.sleepf 0.05;
      go (attempt + 1)
  in
  go 0

let write_all fd s =
  let data = Bytes.of_string s in
  let off = ref 0 in
  while !off < Bytes.length data do
    off := !off + Unix.write fd data !off (Bytes.length data - !off)
  done

(* One leftover buffer per raw connection: two responses can land in a
   single read, and the bytes after the first newline belong to the
   next [read_response] call. *)
let read_leftover : (Unix.file_descr, Buffer.t) Hashtbl.t = Hashtbl.create 4

let read_response fd =
  let buf =
    match Hashtbl.find_opt read_leftover fd with
    | Some b -> b
    | None ->
      let b = Buffer.create 256 in
      Hashtbl.replace read_leftover fd b;
      b
  in
  let one = Bytes.create 4096 in
  let take () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
      Some (String.sub s 0 i)
    | None -> None
  in
  let rec go () =
    match take () with
    | Some line -> line
    | None -> (
      match Unix.read fd one 0 (Bytes.length one) with
      | 0 -> Alcotest.fail "connection closed before a response"
      | n ->
        Buffer.add_subbytes buf one 0 n;
        go ())
  in
  go ()

let test_framing_split_line () =
  with_server (fun socket ->
      let fd = connect_raw socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* one request split across three writes with pauses: each
             lands in its own select wakeup, the partial tail must stay
             buffered until the newline arrives *)
          let line = {|{"op":"query","q":"status"}|} in
          write_all fd (String.sub line 0 9);
          Unix.sleepf 0.05;
          write_all fd (String.sub line 9 11);
          Unix.sleepf 0.05;
          write_all fd (String.sub line 20 (String.length line - 20) ^ "\n");
          let j = Result.get_ok (J.of_string (read_response fd)) in
          Alcotest.(check bool) "split request answered" true (is_ok j);
          check_str "status kind" "status" (get_str "kind" j);
          (* two requests in one write: both answered *)
          write_all fd (line ^ "\n" ^ line ^ "\n");
          Alcotest.(check bool) "first of pair" true
            (is_ok (Result.get_ok (J.of_string (read_response fd))));
          Alcotest.(check bool) "second of pair" true
            (is_ok (Result.get_ok (J.of_string (read_response fd))))))

let test_framing_oversized_line () =
  with_server (fun socket ->
      let fd = connect_raw socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* a complete line just over the 1 MiB cap: rejected in-band,
             connection survives *)
          let big =
            Printf.sprintf {|{"op":"event","ev":"down","pad":"%s"}|}
              (String.make ((1 lsl 20) + 100) 'x')
          in
          write_all fd (big ^ "\n");
          let j = Result.get_ok (J.of_string (read_response fd)) in
          Alcotest.(check bool) "oversized line rejected" false (is_ok j);
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "error names the cap" true
            (match J.to_str (J.member "error" j) with
            | Some m -> contains m "1 MiB"
            | None -> false);
          (* the same connection still answers normal requests *)
          write_all fd "{\"op\":\"query\",\"q\":\"status\"}\n";
          Alcotest.(check bool) "connection survives" true
            (is_ok (Result.get_ok (J.of_string (read_response fd))))))

let test_framing_events_and_now_in_one_write () =
  with_server (fun socket ->
      let fd = connect_raw socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* now, down, now, up, now in a single write: one readiness
             round mixing events and overlay queries, answered in
             arrival order against the state each request finds *)
          let now = {|{"op":"query","q":"now"}|} in
          write_all fd
            (String.concat "\n"
               [
                 now;
                 {|{"op":"event","ev":"down","lag":3,"link":0,"t":60}|};
                 now;
                 {|{"op":"event","ev":"up","lag":3,"link":0,"t":61}|};
                 now;
               ]
            ^ "\n");
          let answers =
            List.init 5 (fun _ -> Result.get_ok (J.of_string (read_response fd)))
          in
          List.iter (fun j -> Alcotest.(check bool) "ok" true (is_ok j)) answers;
          let kinds =
            List.map
              (fun j -> Option.value (J.to_str (J.member "kind" j)) ~default:"event")
              answers
          in
          Alcotest.(check (list string)) "answer order"
            [ "now"; "event"; "now"; "event"; "now" ] kinds;
          check_int "down applied first" 1 (get_int "applied" (List.nth answers 1));
          check_int "up applied second" 2 (get_int "applied" (List.nth answers 3));
          let down j = J.to_string (J.member "down" j) in
          Alcotest.(check (list string)) "only the middle now sees the down link"
            [ "[]"; "[[3,0]]"; "[]" ]
            (List.map down [ List.nth answers 0; List.nth answers 2; List.nth answers 4 ])))

let suite =
  [
    ("json round trip", `Quick, test_json_roundtrip);
    ("json edge cases", `Quick, test_json_edge_cases);
    ("json: every truncation of a valid request", `Quick, test_truncations);
    QCheck_alcotest.to_alcotest prop_random_bytes;
    QCheck_alcotest.to_alcotest prop_byte_flips;
    ("protocol round trip", `Quick, test_protocol_roundtrip);
    ("state ingestion", `Quick, test_state_apply);
    ("invalidation policy table", `Quick, test_policy_decide);
    ("replay deterministic across domains", `Quick, test_replay_deterministic_across_domains);
    ("now batch = sequential", `Quick, test_now_identical_across_domains);
    ("invalidation sound on corpus", `Quick, test_invalidation_sound);
    ("down-in-support invalidates", `Quick, test_down_in_support_invalidates);
    ("worst = analyze, cuts on", `Quick, test_worst_is_analyze Milp.Cuts.default);
    ("worst = analyze, cuts off", `Quick, test_worst_is_analyze Milp.Cuts.disabled);
    ("budget exhaustion honest", `Quick, test_budget_exhaustion_honest);
    ("socket round trip", `Quick, test_socket_roundtrip);
    ("journal round trip", `Quick, test_journal_roundtrip);
    ("journal corrupt tail", `Quick, test_journal_corrupt_tail);
    ("journal: every truncation and byte flip", `Quick, test_journal_mutations);
    ("crash recovery replay", `Quick, test_crash_recovery_replay);
    ("demand event invalidates", `Quick, test_demand_event_invalidates);
    ("alerting crossings", `Quick, test_alerting_crossings);
    ("alerting backpressure", `Quick, test_alerting_backpressure);
    ("alert pipeline end to end", `Quick, test_alert_pipeline_end_to_end);
    ("point envelope: one solve per structural event", `Quick,
      test_point_envelope_one_solve);
    ("point envelope: a starved fast stage is re-solved", `Quick,
      test_point_envelope_starved_fast_stage);
    ("variable envelope: two stages", `Quick, test_variable_envelope_two_stages);
    ("witness alert before the MILP", `Quick, test_witness_alert_before_milp);
    ("witness pool", `Quick, test_witness_pool);
    ("wire-format pin", `Quick, test_wire_format_pin);
    ("framing split line", `Quick, test_framing_split_line);
    ("framing oversized line", `Quick, test_framing_oversized_line);
    ("framing events and now in one write", `Quick, test_framing_events_and_now_in_one_write);
    ("alerting: the bound settles", `Quick, test_alerting_bound);
    ("alerting: an unproven deep answer never clears", `Quick, test_alerting_unproven_deep);
    ("bound clear before the MILP", `Quick, test_bound_clear_before_milp);
  ]
