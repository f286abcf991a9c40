(* serve-read and serve-churn: a `raha serve` daemon on the africa-like
   8-node WAN (three pairs with fixed demand, probability threshold 1e-5,
   --drift-tol 0.3, --domains 1), driven over its Unix socket by a
   seeded, ordered, open-loop request stream on one connection. Every
   latency runs from the time a request was due, so a stall also counts
   against the requests queued behind it.

   The daemon's work must not depend on the seed beyond the stream
   itself: a warm re-solve after telemetry drift costs 4-5 s on this WAN
   against ~0.15 s cold, and would land a seed-dependent number of times
   in a run. So telemetry sits at a clock origin of 1e9 s (a three-second
   outage then moves an estimate by far less than --drift-tol), and
   links flap only where a flap cannot invalidate the cached worst case:
   - serve-read flaps links outside that worst case's failed set;
   - serve-churn flaps the links of LAGs no path uses, each flapped once
     during set-up so its estimate is already at its floor; the
     structural waves then walk the same sequence of cheap states
     whatever the seed, and the seed only picks flap links and outage
     lengths. *)

module Json = Service.Json
module Ev = Service.Event

type mode = Read | Churn

(* The configured demand loads only the middle pair: with the outer
   pairs loaded too, a worst-case solve on this WAN costs 0.1-3.5 s
   instead of ~10 ms, and such bursts queue a seed-dependent share of a
   stream (and make the set-up time swing with the machine's speed). *)
let pairs = [ ((0, 5), 0.); ((1, 6), 60.); ((2, 7), 0.) ]
let volume = 60.
let origin = 1e9

(* Offered rates, fixed at calibration (see README.md). *)
let rate = function Read -> 2500. | Churn -> 40.

(* ---------------------------------------------------------------- *)
(* Inputs and the daemon.                                              *)

type files = { dir : string; wan : string; csv : string; sock : string; journal : string; log : string }

let files dir =
  let f = Filename.concat dir in
  { dir; wan = f "wan8.wan"; csv = f "demand.csv"; sock = f "d.sock"; journal = f "events.journal";
    log = f "daemon.log" }

let write_inputs f =
  Wan.Serialize.save (Wan.Generators.africa_like ~seed:5 ~n:8 ()) f.wan;
  Traffic.Demand_io.save (Traffic.Demand.of_list pairs) f.csv

let daemon_argv ~exe mode f =
  Array.of_list
    ([ exe; "serve"; "-t"; f.wan; "--demand-file"; f.csv; "--threshold"; "1e-5";
       "--drift-tol"; "0.3"; "--domains"; "1"; "--timeout"; "60"; "--socket"; f.sock ]
    @ match mode with Churn -> [ "--journal"; f.journal ] | Read -> [])

(* The same configuration as the CLI builds it, for the in-process twin. *)
let core_config f =
  let topo = Wan.Serialize.load f.wan in
  let base = Traffic.Demand_io.load f.csv in
  let paths =
    Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 topo (Traffic.Demand.pairs base)
  in
  let spec =
    {
      Raha.Bilevel.default_spec with
      Raha.Bilevel.threshold = Some 1e-5;
      encoding = Raha.Bilevel.Strong_duality { levels = 4 };
    }
  in
  ( {
      Service.Core.paths;
      envelope = Traffic.Envelope.fixed base;
      options = { (Raha.Analysis.with_timeout 60.) with Raha.Analysis.spec; domains = 1 };
      drift_tol = 0.3;
      alert_tolerance = 0.1;
    },
    topo )

let live = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter reap !live)

let spawn argv log =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process argv.(0) argv null out out in
  Unix.close out;
  Unix.close null;
  live := pid :: !live;
  pid

(* ---------------------------------------------------------------- *)
(* One client connection.                                              *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t }

let connect sock ~deadline =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < deadline ->
      (* poll finely: the wait is part of the measured set-up time *)
      Unix.close fd;
      Unix.sleepf 0.0002;
      go ()
  in
  go ()

let send c line =
  let b = Bytes.of_string (line ^ "\n") in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write c.fd b !off (Bytes.length b - !off)
  done

(* Complete lines that arrive within [timeout], stamped on arrival. *)
let read_lines c ~timeout =
  match Unix.select [ c.fd ] [] [] (Float.max 0. timeout) with
  | [], _, _ -> []
  | _ -> (
    match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
    | 0 -> failwith "daemon closed the connection"
    | n ->
      let at = Unix.gettimeofday () in
      Buffer.add_subbytes c.buf c.chunk 0 n;
      let s = Buffer.contents c.buf in
      let parts = String.split_on_char '\n' s in
      let rec split = function
        | [] -> []
        | [ tail ] ->
          Buffer.clear c.buf;
          Buffer.add_string c.buf tail;
          []
        | l :: rest -> (at, l) :: split rest
      in
      split parts)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

let is_push line =
  match Json.of_string line with Ok j -> Json.member "push" j <> Json.Null | Error _ -> false

(* Closed-loop request used during set-up: the next non-push line. *)
let request c line ~deadline =
  send c line;
  let rec wait () =
    if Unix.gettimeofday () > deadline then failwith ("no answer to " ^ line);
    match List.filter (fun (_, l) -> not (is_push l)) (read_lines c ~timeout:0.5) with
    | (_, l) :: _ -> l
    | [] -> wait ()
  in
  wait ()

(* ---------------------------------------------------------------- *)
(* Requests.                                                           *)

type item = { due : float; kind : string; req : Ev.request }

let line_of r = Json.to_string (Ev.json_of_request r)
let worst = Ev.Query (Ev.Worst { budget = None; max_nodes = None })
let event e = Ev.Event e

let all_links topo =
  List.concat
    (List.init (Wan.Topology.num_lags topo) (fun e ->
         List.init (Wan.Lag.num_links (Wan.Topology.lag topo e)) (fun i -> (e, i))))

(* Links on LAGs that no path uses. *)
let idle_links topo (paths : Netpath.Path_set.t) =
  let used =
    List.concat_map (fun p -> List.concat_map Netpath.Path.lag_list (Netpath.Path_set.all_paths p)) paths
  in
  List.filter (fun (e, _) -> not (List.mem e used)) (all_links topo)

let demand (src, dst) v at = Ev.Demand { src; dst; lo = v; hi = v; at }

let setup_requests mode idle =
  let churn =
    match mode with
    | Read -> []
    | Churn ->
      List.concat
        (List.mapi
           (fun k (lag, link) ->
             let at = origin +. float_of_int k in
             [ event (Ev.Link_down { lag; link; at }); event (Ev.Link_up { lag; link; at = at +. 0.5 }) ])
           idle)
      @ [ Ev.Subscribe { tolerance = Some 0. } ]
  in
  (Ev.Query Ev.Status :: churn) @ [ worst ]

(* serve-read: ~75% now (half live, half a hypothetical 1-2 link
   overlay), ~12% worst, ~3% status, ~10% flaps drawn from exponential
   outage traces (mean up 60 s, down 3 s) of the links outside the
   cached worst case. *)
let read_stream ~seed ~n topo ~support =
  let rng = Random.State.make [| 11; seed |] in
  let links = all_links topo in
  let flappable = List.filter (fun l -> not (List.mem l support)) links in
  let horizon = 60. *. float_of_int (n + 100) /. float_of_int (List.length flappable) in
  let flaps =
    List.concat
      (List.mapi
         (fun k (lag, link) ->
           List.concat_map
             (fun (o : Failure.Renewal.event) ->
               [
                 (o.Failure.Renewal.down_at, Ev.Link_down { lag; link; at = origin +. 10. +. o.Failure.Renewal.down_at });
                 (o.Failure.Renewal.up_at, Ev.Link_up { lag; link; at = origin +. 10. +. o.Failure.Renewal.up_at });
               ])
             (Failure.Trace.exponential ~seed:((seed * 1000) + k) ~mean_uptime:60. ~mean_downtime:3.
                ~horizon ()))
         flappable)
    |> List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
    |> List.map snd |> ref
  in
  let arr = Array.of_list links in
  let pick () = arr.(Random.State.int rng (Array.length arr)) in
  List.init n (fun i ->
      let due = float_of_int i /. rate Read in
      let u = Random.State.float rng 1. in
      if u < 0.375 then { due; kind = "now"; req = Ev.Query (Ev.Now { down = None }) }
      else if u < 0.75 then begin
        let a = pick () in
        let b = pick () in
        let down = if Random.State.bool rng || a = b then [ a ] else [ a; b ] in
        { due; kind = "now-hyp"; req = Ev.Query (Ev.Now { down = Some down }) }
      end
      else if u < 0.87 then { due; kind = "worst"; req = worst }
      else if u < 0.90 then { due; kind = "status"; req = Ev.Query Ev.Status }
      else
        match !flaps with
        | e :: rest ->
          flaps := rest;
          { due; kind = "flap"; req = event e }
        | [] -> { due; kind = "status"; req = Ev.Query Ev.Status })

(* serve-churn: waves of four structural events. The middle pair's
   demand empties and returns — the tolerance-0 subscriber gets a clear
   (deep stage) then an alert (fast stage) — and the capacity of an idle
   link is halved and restored. Each structural event is followed by a
   worst query and one flap (down, then up after an exponential outage
   of mean 3 s) of an idle link. *)
let churn_stream ~seed ~n topo ~idle =
  let rng = Random.State.make [| 13; seed |] in
  let wave w =
    let lag, link = List.nth idle (w mod List.length idle) in
    let cap = (Wan.Topology.lag topo lag).Wan.Lag.links.(link).Wan.Lag.link_capacity in
    let demand p v at = ("demand", demand p v at) in
    let capacity c at = ("capacity", Ev.Capacity { lag; link; capacity = c; at }) in
    let p1 = fst (List.nth pairs 1) in
    [ demand p1 0.; demand p1 volume; capacity (cap /. 2.); capacity cap ]
  in
  let items = ref [] and i = ref 0 and clock = ref (origin +. 100.) in
  let push kind req =
    if !i < n then begin
      items := { due = float_of_int !i /. rate Churn; kind; req } :: !items;
      incr i
    end
  in
  let w = ref 0 in
  while !i < n do
    List.iter
      (fun mk ->
        clock := !clock +. 20.;
        let kind, e = mk !clock in
        push kind (event e);
        push "worst" worst;
        let lag, link = List.nth idle (Random.State.int rng (List.length idle)) in
        let outage = Float.min 10. (-3. *. log (1. -. Random.State.float rng 0.999)) in
        push "flap" (event (Ev.Link_down { lag; link; at = !clock +. 1. }));
        push "flap" (event (Ev.Link_up { lag; link; at = !clock +. 1.01 +. outage })))
      (wave !w);
    incr w
  done;
  List.rev !items

(* ---------------------------------------------------------------- *)
(* Driving the daemon.                                                 *)

type daemon = {
  pid : int;
  conn : conn;
  setup : (string * string) list;  (** set-up request lines and their answers *)
  worst : Json.t;  (** the initial cold worst answer *)
}

let parse line = match Json.of_string line with Ok j -> j | Error m -> failwith ("bad answer: " ^ m)
let str k j = Json.to_str (Json.member k j)
let is_ok j = Json.to_bool (Json.member "ok" j) = Some true

let links_of j =
  match Json.to_list (Json.member "scenario" j) with
  | None -> []
  | Some l ->
    List.filter_map
      (fun p ->
        match Json.to_list p with
        | Some [ a; b ] -> (
          match (Json.to_int a, Json.to_int b) with Some a, Some b -> Some (a, b) | _ -> None)
        | _ -> None)
      l

let start ~exe mode f ~idle =
  (try Sys.remove f.journal with Sys_error _ -> ());
  let pid = spawn (daemon_argv ~exe mode f) f.log in
  let deadline = Unix.gettimeofday () +. 60. in
  let conn = connect f.sock ~deadline in
  let setup =
    List.map
      (fun r ->
        let l = line_of r in
        (l, request conn l ~deadline))
      (setup_requests mode idle)
  in
  List.iter (fun (l, a) -> if not (is_ok (parse a)) then failwith ("set-up request failed: " ^ l ^ " -> " ^ a)) setup;
  let worst = parse (snd (List.nth setup (List.length setup - 1))) in
  if str "cert" worst <> Some "ok" || str "status" worst <> Some "optimal" then
    failwith ("initial worst case not certified optimal: " ^ Json.to_string worst);
  { pid; conn; setup; worst }

let stop d =
  let rss = Output.peak_rss_mb (Some d.pid) in
  (try
     let deadline = Unix.gettimeofday () +. 30. in
     ignore (request d.conn (line_of Ev.Shutdown) ~deadline)
   with Failure _ | Unix.Unix_error _ -> ());
  Unix.close d.conn.fd;
  let _, status = Unix.waitpid [] d.pid in
  live := List.filter (( <> ) d.pid) !live;
  (rss, status = Unix.WEXITED 0)

type run = {
  t0 : float;  (** the stream's time origin: item [i] is due at [t0 +. due] *)
  sent : float array;
  recv : float array;
  answers : string array;
  pushes : (float * string) list;  (** arrival time, line; in arrival order *)
  final : string;  (** the closing status answer *)
}

(* Send every item when it falls due and collect answers in order (one
   ordered connection), plus any pushes interleaved with them. *)
let drive d items =
  let items = Array.of_list items in
  let n = Array.length items in
  let sent = Array.make n nan and recv = Array.make n nan and answers = Array.make n "" in
  let pushes = ref [] in
  let t0 = Unix.gettimeofday () +. 0.05 in
  let last_due = if n = 0 then 0. else items.(n - 1).due in
  let deadline = t0 +. last_due +. 120. in
  let next_send = ref 0 and next_recv = ref 0 in
  let take lines =
    List.iter
      (fun (at, l) ->
        if is_push l then pushes := (at, l) :: !pushes
        else begin
          recv.(!next_recv) <- at;
          answers.(!next_recv) <- l;
          incr next_recv
        end)
      lines
  in
  while !next_recv < n do
    let now = Unix.gettimeofday () in
    if now > deadline then failwith "the daemon fell more than 120 s behind the stream";
    while !next_send < n && t0 +. items.(!next_send).due <= now do
      send d.conn (line_of items.(!next_send).req);
      sent.(!next_send) <- Unix.gettimeofday ();
      incr next_send
    done;
    let timeout =
      if !next_send < n then t0 +. items.(!next_send).due -. Unix.gettimeofday () else 0.5
    in
    take (read_lines d.conn ~timeout)
  done;
  (* the closing status is answered after every earlier push is queued *)
  send d.conn (line_of (Ev.Query Ev.Status));
  let rec final () =
    if Unix.gettimeofday () > deadline then failwith "no answer to the closing status";
    let lines = read_lines d.conn ~timeout:0.5 in
    match List.partition (fun (_, l) -> is_push l) lines with
    | ps, [] ->
      pushes := List.rev_append ps !pushes;
      final ()
    | ps, (_, a) :: _ ->
      pushes := List.rev_append ps !pushes;
      a
  in
  let final = final () in
  { t0; sent; recv; answers; pushes = List.rev !pushes; final }

(* ---------------------------------------------------------------- *)
(* The in-process twin: the same lines through Service.Core.          *)

let subscribe_ack tolerance =
  Json.Obj
    ([ ("ok", Json.Bool true); ("subscribed", Json.Bool true) ]
    @ match tolerance with Some tol -> [ ("tolerance", Json.float tol) ] | None -> [])

let error_json msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]

let handle_name req resp =
  match req with
  | Ev.Query (Ev.Worst _) -> "core.worst." ^ Option.value (str "provenance" resp) ~default:"none"
  | Ev.Query (Ev.Now _) -> "core.now"
  | Ev.Query Ev.Status -> "core.status"
  | Ev.Event _ -> "core.event"
  | Ev.Subscribe _ | Ev.Shutdown -> "core.other"

type replayed = { r_answers : string array; r_pushes : string list; r_tally : int * int * int;
                  r_alerts : Service.Alerting.stats; r_wall : float }

let replay ?tr mode f lines =
  let cfg, topo = core_config f in
  let core = Service.Core.create cfg topo in
  let al = Service.Core.alerting core in
  let journal =
    match mode with
    | Read -> None
    | Churn ->
      let path = Filename.concat f.dir "replay.journal" in
      (try Sys.remove path with Sys_error _ -> ());
      Some (fst (Service.Journal.open_ path))
  in
  let pushes = ref [] in
  let drain () =
    let rec go () =
      match Service.Alerting.next_chunk al ~id:1 with
      | None -> ()
      | Some (line, off) ->
        Service.Alerting.advance al ~id:1 (String.length line - off);
        pushes := String.trim line :: !pushes;
        go ()
    in
    go ()
  in
  let span name f = Trace.with_span tr name f in
  let t_start = Unix.gettimeofday () in
  let answers =
    Array.of_list
      (List.mapi
         (fun op line ->
           Trace.with_span tr ~op "request" (fun () ->
               let req = span "json.parse" (fun () -> Ev.request_of_line line) in
               let resp =
                 match req with
                 | Error m -> error_json m
                 | Ok (Ev.Subscribe { tolerance }) ->
                   Service.Alerting.subscribe al ~id:1 ~tolerance;
                   subscribe_ack tolerance
                 | Ok r -> Trace.with_named_span tr (handle_name r) (fun () -> Service.Core.handle core r)
               in
               let structural = Json.to_bool (Json.member "structural" resp) = Some true in
               (match (req, journal) with
               | Ok (Ev.Event e), Some j when is_ok resp ->
                 span
                   (if structural then "journal.append.structural" else "journal.append")
                   (fun () -> Service.Journal.append j ~structural e)
               | _ -> ());
               let line = span "json.render" (fun () -> Json.to_string resp) in
               if structural && is_ok resp then begin
                 let before = (Service.Alerting.stats al).Service.Alerting.deep_runs in
                 Trace.with_named_span tr
                   (fun () ->
                     if (Service.Alerting.stats al).Service.Alerting.deep_runs > before then
                       "alert.deep"
                     else "alert.fast")
                   (fun () -> Service.Core.evaluate_alert ~flush:drain core);
                 drain ()
               end;
               line))
         lines)
  in
  let r_wall = Unix.gettimeofday () -. t_start in
  Option.iter Service.Journal.close journal;
  { r_answers = answers; r_pushes = List.rev !pushes; r_tally = Service.Core.tally core;
    r_alerts = Service.Alerting.stats al; r_wall }

(* Answers compared without wall-clock fields; a push's "report" row
   carries the solve's elapsed time. *)
let stable line =
  match Json.of_string line with
  | Error _ -> line
  | Ok (Json.Obj kvs) ->
    Json.to_string (Service.Core.strip_volatile (Json.Obj (List.filter (fun (k, _) -> k <> "report") kvs)))
  | Ok j -> Json.to_string (Service.Core.strip_volatile j)

(* ---------------------------------------------------------------- *)
(* The workloads.                                                      *)

let cli_exe () =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/raha_cli.exe"

let percentile_if_supported xs q =
  (* a percentile is reported only with at least ten samples beyond it *)
  let n = List.length xs in
  if float_of_int n *. (1. -. (q /. 100.)) >= 10. then Some (Stats.percentile xs q) else None

let run mode ~seed ~seconds ~trace ~smoke ~trace_out ~dir =
  let f = files dir in
  write_inputs f;
  let cfg, topo = core_config f in
  let idle = idle_links topo cfg.Service.Core.paths in
  let exe = cli_exe () in
  let failures = ref [] in
  let fail m = failures := m :: !failures in
  (* set-up: spawn, status, (churn: idle-link flaps, subscribe), the
     initial cold worst case; five times before the stream (the last
     daemon serves it) and five after, so the median spans the run *)
  let setup_times = ref [] and spawned = ref 0 in
  let setup () =
    incr spawned;
    let f = { f with sock = Filename.concat dir (Printf.sprintf "d%d.sock" !spawned) } in
    let t0 = Unix.gettimeofday () in
    let d = start ~exe mode f ~idle in
    setup_times := (Unix.gettimeofday () -. t0) :: !setup_times;
    d
  in
  let reps = if smoke then 1 else 5 in
  for _ = 2 to reps do ignore (stop (setup ())) done;
  let d = setup () in
  let support = links_of d.worst in
  let n = max 1 (int_of_float (rate mode *. seconds)) in
  let items =
    match mode with
    | Read -> read_stream ~seed ~n topo ~support
    | Churn -> churn_stream ~seed ~n topo ~idle
  in
  let r = drive d items in
  let rss, clean_exit = stop d in
  if not clean_exit then fail "the daemon did not exit cleanly";
  for _ = 2 to reps + 1 do ignore (stop (setup ())) done;
  let setup_s = Stats.median !setup_times in
  let items = Array.of_list items in
  (* correctness of every answer *)
  let worst_nodes = ref 0 and applied_due = Hashtbl.create 64 in
  Array.iteri
    (fun i a ->
      let j = parse a in
      if not (is_ok j) then fail (Printf.sprintf "request %d (%s): %s" i items.(i).kind a)
      else begin
        (match str "cert" j with
        | Some c when c <> "ok" -> fail (Printf.sprintf "request %d (%s): cert %s" i items.(i).kind c)
        | _ -> ());
        (match str "kind" j with
        | Some "worst" ->
          if str "status" j <> Some "optimal" then fail (Printf.sprintf "request %d: worst not optimal" i);
          worst_nodes := !worst_nodes + Option.value (Json.to_int (Json.member "nodes" j)) ~default:0
        | _ -> ());
        match Json.to_int (Json.member "applied" j) with
        | Some k -> Hashtbl.replace applied_due k (r.t0 +. items.(i).due)
        | None -> ()
      end)
    r.answers;
  let status = parse r.final in
  let stat path =
    List.fold_left (fun j k -> Json.member k j) status path |> Json.to_int |> Option.value ~default:(-1)
  in
  let alerts = stat [ "alerting"; "alerts" ] and clears = stat [ "alerting"; "clears" ] in
  let dropped = stat [ "alerting"; "dropped" ] in
  if dropped <> 0 then fail (Printf.sprintf "%d pushes dropped" dropped);
  if List.length r.pushes <> alerts + clears then
    fail (Printf.sprintf "received %d pushes, the daemon sent %d" (List.length r.pushes) (alerts + clears));
  (* latencies by kind, from the time each request was due *)
  let lat = Hashtbl.create 8 in
  let add k v = Hashtbl.replace lat k (v :: Option.value (Hashtbl.find_opt lat k) ~default:[]) in
  Array.iteri (fun i it -> add it.kind (1000. *. (r.recv.(i) -. (r.t0 +. it.due)))) items;
  List.iter
    (fun (at, l) ->
      match Json.to_int (Json.member "events_applied" (parse l)) with
      | Some k when Hashtbl.mem applied_due k ->
        let kind = "push-" ^ Option.value (str "push" (parse l)) ~default:"" in
        add kind (1000. *. (at -. Hashtbl.find applied_due k))
      | _ -> fail ("push for no event of the stream: " ^ l))
    r.pushes;
  let kinds = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) lat []) in
  let of_kinds ks = List.concat_map (fun k -> Option.value (Hashtbl.find_opt lat k) ~default:[]) ks in
  (* the operation kinds of the end-to-end metrics: other queries, worst
     queries, event acks, alert pushes and clear pushes. Acks are pooled
     over event kinds: a structural ack is followed by the alert solve on
     the daemon's CPU, which delays the client's wake-up by a scheduler
     slice that differs between runs (2-5 ms) *)
  let medians =
    List.filter_map
      (fun (g, xs) -> if xs = [] then None else Some (g, Stats.median xs))
      [
        ("read", of_kinds [ "now"; "now-hyp"; "status" ]);
        ("worst", of_kinds [ "worst" ]);
        ("event", of_kinds [ "flap"; "demand"; "capacity" ]);
        ("alert", of_kinds [ "push-alert" ]);
        ("clear", of_kinds [ "push-clear" ]);
      ]
  in
  let opt name unit = function Some v -> [ Output.metric name unit v ] | None -> [] in
  let queries = of_kinds [ "now"; "now-hyp"; "worst"; "status" ] in
  let events = of_kinds [ "flap"; "demand"; "capacity" ] in
  let details =
    [ Output.metric "requests" "count" (float_of_int (Array.length items));
      Output.metric "offered_rate" "1/s" (rate mode) ]
    @ opt "query_p50_ms" "ms" (percentile_if_supported queries 50.)
    @ opt "query_p95_ms" "ms" (percentile_if_supported queries 95.)
    @ opt "worst_p50_ms" "ms" (percentile_if_supported (of_kinds [ "worst" ]) 50.)
    @ opt "event_ack_p50_ms" "ms" (percentile_if_supported events 50.)
    @ opt "event_ack_p95_ms" "ms" (percentile_if_supported events 95.)
    @ opt "push_p50_ms" "ms" (percentile_if_supported (of_kinds [ "push-alert"; "push-clear" ]) 50.)
    @ List.map (fun k -> Output.metric ("p50_ms." ^ k) "ms" (Stats.median (Hashtbl.find lat k))) kinds
  in
  let counters =
    Printf.sprintf "requests=%s events_applied=%d served=%d/%d/%d alerting=%d/%d/%d/%d/%d pushes=%d cuts=%d worst_nodes=%d"
      (String.concat "," (List.map (fun k -> Printf.sprintf "%s:%d" k (List.length (Hashtbl.find lat k))) kinds))
      (stat [ "events_applied" ]) (stat [ "served"; "cached" ]) (stat [ "served"; "warm" ])
      (stat [ "served"; "cold" ]) (stat [ "alerting"; "evaluations" ]) alerts clears
      (stat [ "alerting"; "deep_runs" ]) dropped (List.length r.pushes) (stat [ "cuts_stored" ])
      !worst_nodes
  in
  (* the traced run: the same lines through an in-process Service.Core,
     untraced then traced; the traced answers must equal the daemon's *)
  let per_layer =
    if not trace then []
    else begin
      let setup_lines = List.map fst d.setup in
      let lines = setup_lines @ Array.to_list (Array.map (fun it -> line_of it.req) items) @ [ line_of (Ev.Query Ev.Status) ] in
      let plain = replay mode f lines in
      let tr = Trace.create (match mode with Read -> "serve-read" | Churn -> "serve-churn") in
      let traced = replay ~tr mode f lines in
      let daemon_answers = List.map snd d.setup @ Array.to_list r.answers @ [ r.final ] in
      List.iteri
        (fun i (a, b) ->
          if stable a <> stable b then
            fail (Printf.sprintf "answer %d differs in process: %s vs %s" i a b))
        (List.combine daemon_answers (Array.to_list traced.r_answers));
      if List.map stable (List.map snd r.pushes) <> List.map stable traced.r_pushes then
        fail "pushes differ in process";
      let nsetup = List.length setup_lines in
      let spans = Trace.spans tr in
      let med name scale = let ds = Trace.durations tr name in if ds = [] then 0. else scale *. Stats.median ds in
      let ratio a b = if b = 0. then 0. else a /. b in
      let sum_counter pick key =
        float_of_int (List.fold_left (fun acc s -> if pick s then acc + Trace.counter_of s key else acc) 0 spans)
      in
      let is_solve (s : Trace.span) =
        String.starts_with ~prefix:"core.worst." s.Trace.name || String.starts_with ~prefix:"alert." s.Trace.name
      in
      let solve_counter = sum_counter is_solve and root_counter = sum_counter (fun s -> s.Trace.name = "request") in
      (* per stream request: in-process time before its answer leaves,
         i.e. the request span without the alert evaluation after it *)
      let root_of = Hashtbl.create 4096 and alert_of = Hashtbl.create 256 in
      List.iter
        (fun (s : Trace.span) ->
          if s.Trace.name = "request" then Hashtbl.replace root_of s.Trace.op (Trace.duration s)
          else if String.starts_with ~prefix:"alert." s.Trace.name then
            Hashtbl.replace alert_of s.Trace.op (Trace.duration s))
        spans;
      let handle i =
        Hashtbl.find root_of (i + nsetup)
        -. Option.value (Hashtbl.find_opt alert_of (i + nsetup)) ~default:0.
      in
      let stream = List.init (Array.length items) Fun.id in
      (* socket overhead, on requests sent to a daemon with nothing queued *)
      let overheads =
        List.filter_map
          (fun i ->
            let idle = i = 0 || (r.recv.(i - 1) <= r.sent.(i) && not (Hashtbl.mem alert_of (i - 1 + nsetup))) in
            if idle then Some (1000. *. (r.recv.(i) -. r.sent.(i) -. handle i)) else None)
          stream
      in
      let busy =
        List.fold_left (fun acc i -> acc +. Hashtbl.find root_of (i + nsetup)) 0. stream
      in
      let last_recv = Array.fold_left Float.max r.t0 r.recv in
      let last_due = r.t0 +. items.(Array.length items - 1).due in
      let cached, warm, cold = traced.r_tally in
      let nodes = solve_counter "bb-nodes" in
      let now_counter key = float_of_int (Trace.counter tr "core.now" key) in
      (match trace_out with Some p -> Trace.write tr p | None -> ());
      [
        ("bb.nodes", nodes);
        ("bb.pivots_per_node", ratio (solve_counter "simplex") nodes);
        ("bb.sb_probes", solve_counter "sb-probes");
        ("bb.pseudocost_updates", solve_counter "pseudocost-updates");
        ("bb.heuristic_solutions", solve_counter "heuristic-solutions");
        ("bb.rounds", solve_counter "bb-rounds");
        ("bb.warm_hit_ratio", ratio (solve_counter "warm-hits") (solve_counter "warm-attempts"));
        ("bb.cuts_applied_ratio", ratio (solve_counter "cuts-applied") (solve_counter "cuts-generated"));
        ("presolve.rows_removed", solve_counter "presolve-rows");
        ("presolve.cols_fixed", solve_counter "presolve-cols");
        ("certify.checks", root_counter "certify-checks");
        ("certify.failures", root_counter "certify-failures");
        ("batch.overlay_us", med "core.now" 1e6);
        ("batch.factorizations", now_counter "factorizations");
        ("batch.warm_hit_ratio", ratio (now_counter "batch-warm-hits") (now_counter "batch-overlays"));
        ("json.parse_us", med "json.parse" 1e6);
        ("json.render_us", med "json.render" 1e6);
        ("state.apply_us", med "core.event" 1e6);
        ("core.now_ms", med "core.now" 1e3);
        ("core.worst_cached_ms", med "core.worst.cached" 1e3);
        ("core.worst_warm_ms", med "core.worst.warm" 1e3);
        ("core.worst_cold_ms", med "core.worst.cold" 1e3);
        ("core.status_ms", med "core.status" 1e3);
        ("policy.cached", float_of_int cached);
        ("policy.warm", float_of_int warm);
        ("policy.cold", float_of_int cold);
        ("journal.append_ms", med "journal.append.structural" 1e3);
        ("journal.append_us", med "journal.append" 1e6);
        ("alert.fast_ms", med "alert.fast" 1e3);
        ("alert.deep_ms", med "alert.deep" 1e3);
        ("alert.deep_runs", float_of_int traced.r_alerts.Service.Alerting.deep_runs);
        ("alert.dropped", float_of_int traced.r_alerts.Service.Alerting.dropped);
        ("server.overhead_ms", if overheads = [] then 0. else Stats.median overheads);
        ("server.busy_frac", busy /. (last_recv -. r.t0));
        ("gen.late_p95_ms", 1000. *. Stats.percentile (Array.to_list (Array.mapi (fun i s -> s -. (r.t0 +. items.(i).due)) r.sent)) 95.);
        ("gen.backlog_s", Float.max 0. (last_recv -. last_due));
        ("trace.overhead_frac", (traced.r_wall /. plain.r_wall) -. 1.);
        ("trace.coverage_frac", Trace.coverage tr "request");
      ]
    end
  in
  {
    Output.attempted = Array.length items + List.length r.pushes;
    failures = List.rev !failures;
    end_to_end =
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", rss);
        ("p50_ms", Stats.gmean (List.map snd medians));
        ("max_p50_ms", List.fold_left (fun acc (_, m) -> Float.max acc m) 0. medians);
      ];
    per_layer;
    details;
    counters;
  }
