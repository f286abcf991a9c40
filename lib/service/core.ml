let src = Logs.Src.create "service.core" ~doc:"degradation service core"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  paths : Netpath.Path_set.t;
  envelope : Traffic.Envelope.t;
  options : Raha.Analysis.options;
  drift_tol : float;
  alert_tolerance : float;
}

(* The cached worst-case answer, plus everything the invalidation
   policy compares against: the estimates vector at solve time, the
   structure generation, and the worst case's link support. *)
type cached = {
  answer : (string * Json.t) list;  (* the result fields, sans freshness *)
  report : Raha.Analysis.report;
      (* the full solve report behind [answer] — the deep alert stage
         re-reads it (normalized degradation, Report summary) without
         re-deriving anything from the JSON *)
  support : (int * int) list;
  probs : float array;
  events_at : int;
  sgen_at : int;
  proved : bool;
      (* the cached solve proved optimality; a budget-starved Feasible
         or Unknown answer is remembered (for its hints and telemetry)
         but never re-served — the next query re-solves *)
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
    n_cached = 0;
    n_warm = 0;
    n_cold = 0;
  }

let tally t = (t.n_cached, t.n_warm, t.n_cold)
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

let solve_worst ?options t ~budget ~max_nodes =
  let options = Option.value options ~default:t.cfg.options in
  let topo = State.current_topology t.state in
  let screen = engine_for t in
  let options =
    {
      options with
      Raha.Analysis.sx_iters =
        (match budget with
        | Some _ -> budget
        | None -> options.Raha.Analysis.sx_iters);
      max_nodes =
        (match max_nodes with
        | Some m -> min m options.Raha.Analysis.max_nodes
        | None -> options.Raha.Analysis.max_nodes);
    }
  in
  let r =
    Raha.Analysis.analyze ?screen ~options topo t.cfg.paths (State.envelope t.state)
  in
  let support = Failure.Scenario.links r.Raha.Analysis.scenario in
  let answer =
    [
      ("kind", Json.String "worst");
      ("status", Json.String (status_str r.Raha.Analysis.status));
      ("degradation", Json.float r.Raha.Analysis.degradation);
      ("normalized", Json.float r.Raha.Analysis.normalized);
      ("bound", Json.float r.Raha.Analysis.bound);
      ("scenario", scenario_json support);
      ("scenario_prob", Json.float r.Raha.Analysis.scenario_prob);
      ("num_failed_links", Json.Int r.Raha.Analysis.num_failed_links);
      ("nodes", Json.Int r.Raha.Analysis.nodes);
    ]
  in
  t.cached <-
    Some
      {
        answer;
        report = r;
        support;
        probs = State.estimates t.state;
        events_at = State.events_applied t.state;
        sgen_at = State.structure_generation t.state;
        proved = r.Raha.Analysis.status = Milp.Solver.Optimal;
      };
  (answer, r.Raha.Analysis.elapsed, r.Raha.Analysis.certificate)

(* The invalidation verdict a worst query (or a deep alert evaluation)
   would act on right now. *)
let worst_verdict t =
  let est = State.estimates t.state in
  let sgen = State.structure_generation t.state in
  let verdict =
    match t.cached with
    | None ->
      Policy.decide ~structural_changed:true ~drift:Float.infinity
        ~drift_tol:t.cfg.drift_tol ~down_in_support:false
    | Some c ->
      Policy.decide
        ~structural_changed:(c.sgen_at <> sgen)
        ~drift:(Policy.drift est c.probs) ~drift_tol:t.cfg.drift_tol
        ~down_in_support:
          (List.exists
             (fun l -> List.mem l c.support)
             (State.live_down t.state))
  in
  (* an unproven cached answer (budget starvation) is never re-served *)
  match (verdict, t.cached) with
  | Policy.Cached, Some c when not c.proved -> Policy.Warm
  | v, _ -> v

(* Solve inside a counter scope, fold the cert verdict into the cached
   answer, return the wire fields plus the scope report. *)
let solve_scoped ?options t ~budget ~max_nodes =
  let scope = Milp.Lp_stats.scope_enter () in
  let answer, elapsed, certificate = solve_worst ?options t ~budget ~max_nodes in
  let report = Milp.Lp_stats.scope_exit scope in
  let cert =
    (* the MILP's own certificate is authoritative; overlay/cut audit
       failures inside the scope also taint the verdict *)
    match certificate with
    | Some c when not c.Milp.Certify.ok -> "fail"
    | Some _ | None -> cert_of_counters report.Milp.Lp_stats.scope_counters
  in
  let answer = answer @ [ ("cert", Json.String cert) ] in
  (* fold the verdict into the cache so later cached serves repeat it *)
  (match t.cached with
  | Some c -> t.cached <- Some { c with answer }
  | None -> ());
  (answer, elapsed, report)

let query_worst t ~budget ~max_nodes =
  let verdict = worst_verdict t in
  match (verdict, t.cached) with
  | Policy.Cached, Some c ->
    t.n_cached <- t.n_cached + 1;
    (* no solver work; [c.answer] already carries the cached solve's
       cert verdict *)
    ok
      (c.answer
      @ freshness ~provenance:"cached" ~events_at:c.events_at t
      @ [ ("elapsed", Json.float 0.); ("counters", Json.Obj []) ])
  | _ ->
    let answer, elapsed, report = solve_scoped t ~budget ~max_nodes in
    (match verdict with
    | Policy.Warm -> t.n_warm <- t.n_warm + 1
    | Policy.Cached | Policy.Cold -> t.n_cold <- t.n_cold + 1);
    ok
      (answer
      @ freshness
          ~provenance:(Policy.verdict_name verdict)
          ~events_at:(State.events_applied t.state) t
      @ [ ("elapsed", Json.float elapsed); ("counters", counters_json report) ])

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

let stage_fields t (r : Raha.Analysis.report) =
  [
    ("status", Json.String (status_str r.Raha.Analysis.status));
    ("degradation", Json.float r.Raha.Analysis.degradation);
    ("normalized", Json.float r.Raha.Analysis.normalized);
    ("scenario", scenario_json (Failure.Scenario.links r.Raha.Analysis.scenario));
    ("scenario_prob", Json.float r.Raha.Analysis.scenario_prob);
    ("events_applied", Json.Int (State.events_applied t.state));
    ("clock", Json.float (State.clock t.state));
  ]

let stage_of_report t r =
  {
    Alerting.fields = stage_fields t r;
    exceeds = (fun tol -> Raha.Alert.exceeds r ~tolerance:tol);
    usable = true;
  }

let unusable_stage =
  { Alerting.fields = []; exceeds = (fun _ -> false); usable = false }

(* The worst-case report over the live envelope, under the query
   invalidation policy and cache: a Cached verdict re-reads the cached
   report, anything else solves under [options] (default the configured
   ones) and refills the cache, which later worst queries then serve.
   Alert evaluations keep their own tallies ({!Alerting.stats}), not the
   cached/warm/cold ones. *)
let worst_report ?options t =
  (match worst_verdict t with
  | Policy.Cached -> ()
  | Policy.Warm | Policy.Cold ->
    ignore (solve_scoped ?options t ~budget:None ~max_nodes:None));
  match t.cached with
  | Some c -> c.report
  | None -> assert false (* solve_scoped always fills the cache *)

(* Fast stage (Raha.Alert stage 1): the worst case at the demand fixed
   to the envelope's upper corner — the observed peak — on a quarter of
   the budget. On a point envelope that is the worst query itself, so it
   runs through the query cache with the screening engine: a proved
   answer is what the deep stage and the next worst query re-read, an
   unproven one makes the deep stage re-solve on the full budget. On a
   variable envelope it is a separate solve without the engine, which
   is built over the variable envelope, not this fixed one. *)
let alert_fast t =
  let envelope = State.envelope t.state in
  if Traffic.Envelope.is_fixed envelope then
    worst_report ~options:(Raha.Alert.fast_options t.cfg.options) t
  else
    Raha.Alert.fast_check ~options:t.cfg.options (State.current_topology t.state)
      t.cfg.paths ~peak:envelope.Traffic.Envelope.hi

let evaluate_alert ?(flush = fun () -> ()) t =
  if Alerting.subscribers t.alerting > 0 then begin
    let fast =
      match alert_fast t with
      | r -> stage_of_report t r
      | exception e ->
        Log.warn (fun f ->
            f "alert fast stage failed: %s" (Printexc.to_string e));
        unusable_stage
    in
    let deep () =
      (* deep stage (stage 2): the worst query over the live envelope *)
      match worst_report t with
      | r ->
        let s = stage_of_report t r in
        {
          s with
          Alerting.fields =
            s.Alerting.fields
            @ [ ("report", Json.String (Raha.Report.summary_row r)) ];
        }
      | exception e ->
        Log.warn (fun f ->
            f "alert deep stage failed: %s" (Printexc.to_string e));
        unusable_stage
    in
    Alerting.evaluate t.alerting ~fast ~deep ~flush
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
            ("clears", Json.Int s.Alerting.clears);
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
