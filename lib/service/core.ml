let src = Logs.Src.create "service.core" ~doc:"degradation service core"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  paths : Netpath.Path_set.t;
  envelope : Traffic.Envelope.t;
  options : Raha.Analysis.options;
  drift_tol : float;
  alert_tolerance : float;
}

(* The cached worst-case solve, plus everything the invalidation
   policy compares against: the estimates vector at solve time and the
   structure generation. An unproven (budget-starved) solve is kept for
   telemetry but never re-served ({!worst_verdict}). *)
type cached = {
  report : Raha.Analysis.report;
  cert : string;  (* the solve's cert verdict, repeated on cached serves *)
  probs : float array;
  events_at : int;
  sgen_at : int;
}

type t = {
  cfg : config;
  state : State.t;
  alerting : Alerting.t;
  mutable journal : Journal.t option;
  mutable engine : (int * Te.Simulate.engine option) option;
      (* (structure generation it was prepared at, engine); [Some None]
         records that the healthy network cannot route the screening
         demand — also a valid, cacheable fact *)
  mutable cached : cached option;
  mutable pool : Failure.Scenario.t list;
      (* the scenarios of the last proved worst-case and fast-stage
         answers, newest first, distinct, at most [pool_cap]: the
         witness stage replays them *)
  mutable n_cached : int;
  mutable n_warm : int;
  mutable n_cold : int;
}

let create cfg topo =
  {
    cfg;
    state = State.create ~envelope:cfg.envelope topo;
    alerting = Alerting.create ~tolerance:cfg.alert_tolerance ();
    journal = None;
    engine = None;
    cached = None;
    pool = [];
    n_cached = 0;
    n_warm = 0;
    n_cold = 0;
  }

let pool_cap = 4
let tally t = (t.n_cached, t.n_warm, t.n_cold)
let witness_pool t = t.pool
let alerting t = t.alerting
let attach_journal t j = t.journal <- Some j

(* ------------------------------------------------------------------ *)
(* Response plumbing                                                   *)

let err msg = Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]
let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

let status_str s = Format.asprintf "%a" Milp.Solver.pp_status s

let scenario_json links =
  Json.List (List.map (fun (e, i) -> Json.List [ Json.Int e; Json.Int i ]) links)

let counters_json (report : Milp.Lp_stats.scope_report) =
  Json.Obj
    (List.filter_map
       (fun (k, v) -> if v = 0 then None else Some (k, Json.Int v))
       report.Milp.Lp_stats.scope_counters)

(* cert verdict from a query's counter deltas: every certification and
   audit that ran inside the query must have passed *)
let cert_of_counters counters =
  let read k = Option.value (List.assoc_opt k counters) ~default:0 in
  if read "certify-failures" = 0 && read "cut-audit-failures" = 0 then "ok"
  else "fail"

let rec strip_volatile = function
  | Json.Obj kvs ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "elapsed" || k = "counters" then None
           else Some (k, strip_volatile v))
         kvs)
  | Json.List l -> Json.List (List.map strip_volatile l)
  | j -> j

(* ------------------------------------------------------------------ *)
(* Engine lifecycle                                                    *)

let engine_for t =
  let sgen = State.structure_generation t.state in
  match t.engine with
  | Some (g, e) when g = sgen -> e
  | _ ->
    let topo = State.current_topology t.state in
    let e =
      Raha.Analysis.screening_engine ~spec:t.cfg.options.Raha.Analysis.spec topo
        t.cfg.paths (State.envelope t.state)
    in
    t.engine <- Some (sgen, e);
    e

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let freshness ~provenance ~events_at t =
  [
    ("provenance", Json.String provenance);
    ("events_applied", Json.Int events_at);
    ("staleness", Json.Int (State.events_applied t.state - events_at));
  ]

(* The worst answer's result fields, sans freshness *)
let worst_fields c =
  let r = c.report in
  [
    ("kind", Json.String "worst");
    ("status", Json.String (status_str r.Raha.Analysis.status));
    ("degradation", Json.float r.Raha.Analysis.degradation);
    ("normalized", Json.float r.Raha.Analysis.normalized);
    ("bound", Json.float r.Raha.Analysis.bound);
    ("scenario", scenario_json (Failure.Scenario.links r.Raha.Analysis.scenario));
    ("scenario_prob", Json.float r.Raha.Analysis.scenario_prob);
    ("num_failed_links", Json.Int r.Raha.Analysis.num_failed_links);
    ("nodes", Json.Int r.Raha.Analysis.nodes);
    ("cert", Json.String c.cert);
  ]

(* A proved answer's scenario joins the witness pool, at its head. *)
let remember t (r : Raha.Analysis.report) =
  if r.status = Milp.Solver.Optimal then
    t.pool <-
      List.filteri
        (fun i _ -> i < pool_cap)
        (r.scenario :: List.filter (fun p -> not (Failure.Scenario.equal p r.scenario)) t.pool)

(* One worst-case solve of the live state inside a counter scope (engine
   (re)build included, and the candidate screening unless the witness
   stage lends its [candidates]); the entry it caches, and the scope
   report. *)
let solve ?candidates ~options t =
  let scope = Milp.Lp_stats.scope_enter () in
  let screen = engine_for t in
  let r =
    Raha.Analysis.analyze ?screen ?candidates ~options (State.current_topology t.state)
      t.cfg.paths (State.envelope t.state)
  in
  remember t r;
  let report = Milp.Lp_stats.scope_exit scope in
  let cert =
    (* the MILP's own certificate is authoritative; overlay/cut audit
       failures inside the scope also taint the verdict *)
    match r.Raha.Analysis.certificate with
    | Some c when not c.Milp.Certify.ok -> "fail"
    | Some _ | None -> cert_of_counters report.Milp.Lp_stats.scope_counters
  in
  let c =
    {
      report = r;
      cert;
      probs = State.estimates t.state;
      events_at = State.events_applied t.state;
      sgen_at = State.structure_generation t.state;
    }
  in
  t.cached <- Some c;
  (c, report)

(* The invalidation verdict a worst query (or a deep alert evaluation)
   would act on right now. *)
let worst_verdict t =
  match t.cached with
  | None -> Policy.Cold
  | Some c -> (
    match
      Policy.decide
        ~structural_changed:(c.sgen_at <> State.structure_generation t.state)
        ~drift:(Policy.drift (State.estimates t.state) c.probs)
        ~drift_tol:t.cfg.drift_tol
        ~down_in_support:
          (List.exists
             (fun (lag, link) ->
               Failure.Scenario.is_down c.report.Raha.Analysis.scenario ~lag ~link)
             (State.live_down t.state))
    with
    (* an unproven cached answer (budget starvation) is never re-served *)
    | Policy.Cached when c.report.Raha.Analysis.status <> Milp.Solver.Optimal -> Policy.Warm
    | v -> v)

(* The worst case under the policy: the cached entry under a Cached
   verdict (no scope report: no solver work), a fresh solve under
   [options] otherwise. *)
let dispatch ?candidates ~options t =
  match (worst_verdict t, t.cached) with
  | Policy.Cached, Some c -> (Policy.Cached, c, None)
  | verdict, _ ->
    let c, report = solve ?candidates ~options t in
    (verdict, c, Some report)

let query_worst t ~budget ~max_nodes =
  let o = t.cfg.options in
  let options =
    {
      o with
      Raha.Analysis.sx_iters = (match budget with None -> o.Raha.Analysis.sx_iters | b -> b);
      max_nodes = Option.fold max_nodes ~none:o.max_nodes ~some:(min o.max_nodes);
    }
  in
  let verdict, c, report = dispatch ~options t in
  (match verdict with
  | Policy.Cached -> t.n_cached <- t.n_cached + 1
  | Policy.Warm -> t.n_warm <- t.n_warm + 1
  | Policy.Cold -> t.n_cold <- t.n_cold + 1);
  let elapsed, counters =
    match report with
    | None -> (0., Json.Obj [])
    | Some report -> (c.report.Raha.Analysis.elapsed, counters_json report)
  in
  ok
    (worst_fields c
    @ freshness ~provenance:(Policy.verdict_name verdict) ~events_at:c.events_at t
    @ [ ("elapsed", Json.float elapsed); ("counters", counters) ])

(* One "now" query: a warm overlay solve of the persistent engine, run
   inline in its own counter scope (engine (re)build included), so the
   answer's counters and cert verdict are its own. *)
let now t down =
  let scope = Milp.Lp_stats.scope_enter () in
  let topo = State.current_topology t.state in
  let down = match down with Some d -> d | None -> State.live_down t.state in
  let result =
    match engine_for t with
    | None -> Error "healthy network cannot route the screening demand"
    | Some eng -> (
      match Failure.Scenario.of_links topo down with
      | exception Invalid_argument m -> Error m
      | scenario ->
        Ok
          ( Te.Simulate.degradation_prepared eng scenario,
            Failure.Scenario.prob topo scenario ))
  in
  let report = Milp.Lp_stats.scope_exit scope in
  match result with
  | Error m -> err m
  | Ok (deg, prob) ->
    ok
      ([
         ("kind", Json.String "now");
         ("down", scenario_json down);
         ( "degradation",
           match deg with Some d -> Json.float d | None -> Json.Null );
         ("prob", Json.float prob);
         ("cert", Json.String (cert_of_counters report.Milp.Lp_stats.scope_counters));
       ]
      @ freshness ~provenance:"overlay" ~events_at:(State.events_applied t.state) t
      @ [ ("counters", counters_json report) ])

(* ------------------------------------------------------------------ *)
(* Push alerting                                                       *)

(* One alert stage's result: the push fields of [compute]'s answer (its
   own, then the event count and clock, then the deep stage's summary
   row) and the evidence of that answer; [None] when it has no answer
   or raised, which proves nothing. *)
let stage t ~topo name compute =
  let fields (e : Raha.Alert.evidence) (a : Raha.Alert.answer) =
    let point status degradation normalized scenario scenario_prob =
      [
        ("status", Json.String (status_str status));
        ("degradation", Json.float degradation);
        ("normalized", Json.float normalized);
        ("scenario", scenario_json (Failure.Scenario.links scenario));
        ("scenario_prob", Json.float scenario_prob);
      ]
    in
    let report (r : Raha.Analysis.report) =
      point r.status r.degradation r.normalized r.scenario r.scenario_prob
    in
    let clock =
      [
        ("events_applied", Json.Int (State.events_applied t.state));
        ("clock", Json.float (State.clock t.state));
      ]
    in
    match a with
    | Replayed w ->
      point Milp.Solver.Feasible w.degradation (e.lo /. e.per) w.scenario w.scenario_prob
      @ clock
    | Ceiling b ->
      [ ("bound", Json.float b); ("normalized", Json.float (e.hi /. e.per)) ] @ clock
    | Fast r -> report r @ clock
    | Deep r -> report r @ clock @ [ ("report", Json.String (Raha.Report.summary_row r)) ]
  in
  match compute () with
  | Some a ->
    let e = Raha.Alert.evidence topo a in
    Some { Alerting.fields = fields e a; evidence = e }
  | None -> None
  | exception e ->
    Log.warn (fun f -> f "alert %s stage failed: %s" name (Printexc.to_string e));
    None

(* The worst-case report over the live envelope, through the query
   dispatch, so later worst queries serve what it solved. Alert
   evaluations keep their own tallies ({!Alerting.stats}), not the
   cached/warm/cold ones. *)
let worst_report ?candidates ~options t =
  let _, c, _ = dispatch ?candidates ~options t in
  c.report

let evaluate_alert ?(flush = fun () -> ()) t =
  if Alerting.subscribers t.alerting > 0 then begin
    let topo = State.current_topology t.state and envelope = State.envelope t.state in
    let peak = envelope.Traffic.Envelope.hi in
    let stage = stage t ~topo in
    (* witness and bound stages (stage 0), before any solve: the
       candidates replayed at the observed peak, the envelope's upper
       corner, and the total demand there *)
    let candidates = ref None in
    let witness =
      stage "witness" (fun () ->
          (* in a counter scope of its own; a failed overlay audit drops
             the engine, so the next solve prepares and screens inside
             its own scope, whose cert verdict then shows the failure *)
          let scope = Milp.Lp_stats.scope_enter () in
          let c, best =
            Raha.Alert.witness ~options:t.cfg.options ?screen:(engine_for t) ~pooled:t.pool
              topo t.cfg.paths ~peak
          in
          let report = Milp.Lp_stats.scope_exit scope in
          if cert_of_counters report.Milp.Lp_stats.scope_counters <> "ok" then begin
            t.engine <- None;
            failwith "overlay audit failed"
          end;
          candidates := c;
          Option.map (fun w -> Raha.Alert.Replayed w) best)
    in
    let candidates = !candidates in
    let bound =
      stage "bound" (fun () ->
          Option.map
            (fun b -> Raha.Alert.Ceiling b)
            (Raha.Alert.bound ~options:t.cfg.options ~peak envelope))
    in
    (* fast stage (stage 1) at the peak; on a point envelope its worst
       case is the worst query *)
    let fast () =
      stage "fast" (fun () ->
          let r =
            Raha.Alert.fast ~options:t.cfg.options ?candidates
              ~worst:(fun options -> worst_report ?candidates ~options t)
              topo t.cfg.paths ~peak envelope
          in
          remember t r;
          Some (Raha.Alert.Fast r))
    in
    (* deep stage (stage 2): the worst query over the live envelope *)
    let deep () =
      stage "deep" (fun () ->
          Some (Raha.Alert.Deep (worst_report ?candidates ~options:t.cfg.options t)))
    in
    Alerting.evaluate t.alerting ~witness ~bound ~fast ~deep ~flush
  end

let query_status t =
  let cached, warm, cold = tally t in
  ok
    [
      ("kind", Json.String "status");
      ("clock", Json.float (State.clock t.state));
      ("events_applied", Json.Int (State.events_applied t.state));
      ("live_down", Json.Int (State.num_down t.state));
      ("structure_generation", Json.Int (State.structure_generation t.state));
      ( "cache",
        match t.cached with
        | None -> Json.Null
        | Some c ->
          Json.Obj
            [
              ("events_at", Json.Int c.events_at);
              ( "staleness",
                Json.Int (State.events_applied t.state - c.events_at) );
              ( "drift",
                Json.float (Policy.drift (State.estimates t.state) c.probs) );
            ] );
      ( "served",
        Json.Obj
          [
            ("cached", Json.Int cached);
            ("warm", Json.Int warm);
            ("cold", Json.Int cold);
          ] );
      ( "alerting",
        let s = Alerting.stats t.alerting in
        Json.Obj
          [
            ("subscribers", Json.Int (Alerting.subscribers t.alerting));
            ("evaluations", Json.Int s.Alerting.evaluations);
            ("alerts", Json.Int s.Alerting.alerts);
            ("witness", Json.Int s.Alerting.witness);
            ("clears", Json.Int s.Alerting.clears);
            ("bound", Json.Int s.Alerting.bound);
            ("deep_runs", Json.Int s.Alerting.deep_runs);
            ("dropped", Json.Int s.Alerting.dropped);
          ] );
    ]

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let handle t = function
  | Event.Event e -> (
    match State.apply t.state e with
    | Ok structural ->
      (* durable before acknowledged: a crash after this append replays
         the event on restart; a crash before it loses only an event the
         client never saw accepted *)
      (match t.journal with
      | Some j -> Journal.append j ~structural e
      | None -> ());
      ok
        [
          ("applied", Json.Int (State.events_applied t.state));
          ("structural", Json.Bool structural);
        ]
    | Error m -> err m)
  | Event.Subscribe _ ->
    (* Server intercepts subscribe (it owns the connection identity);
       reaching Core means there is no connection to register *)
    err "subscribe requires a socket connection"
  | Event.Query (Event.Worst { budget; max_nodes }) -> (
    try query_worst t ~budget ~max_nodes
    with e -> err (Printf.sprintf "solve failed: %s" (Printexc.to_string e)))
  | Event.Query (Event.Now { down }) -> (
    try now t down
    with e -> err (Printf.sprintf "overlay failed: %s" (Printexc.to_string e)))
  | Event.Query Event.Status -> query_status t
  | Event.Shutdown -> ok [ ("bye", Json.Bool true) ]

(* Journal recovery: fold the recovered events through the same ingest
   path live events take (State.apply), without re-journaling them —
   the journal is attached after replay, so the log is not rewritten. *)
let replay t events =
  let accepted = ref 0 and rejected = ref 0 in
  List.iter
    (fun e ->
      match State.apply t.state e with
      | Ok _ -> incr accepted
      | Error m ->
        incr rejected;
        Log.warn (fun f -> f "replay: rejected event: %s" m))
    events;
  (!accepted, !rejected)
