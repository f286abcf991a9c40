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

(* One cover + clique separation at the LP-relaxation optimum of the
   model [analyze] is about to build; the cuts join that model as rows
   before presolve. Nothing is kept from one solve to the next, so a
   warm re-solve solves exactly the model a cold one does. *)
let fresh_cuts options topo paths envelope =
  if not options.Raha.Analysis.cuts.Milp.Cuts.enable then []
  else begin
    let built = Raha.Bilevel.build options.Raha.Analysis.spec topo paths envelope in
    let model = built.Raha.Bilevel.model in
    match Milp.Simplex.solve model with
    | Milp.Simplex.Optimal { values; _ } ->
      Milp.Cuts.separate_structural model ~point:values
    | Milp.Simplex.Infeasible | Milp.Simplex.Unbounded
    | Milp.Simplex.Iter_limit ->
      []
  end

let solve_worst t ~verdict ~budget ~max_nodes =
  let topo = State.current_topology t.state in
  let envelope = State.envelope t.state in
  (* structure moved: the engine routes over a topology or envelope
     that no longer exists *)
  if verdict = Policy.Cold then t.engine <- None;
  let screen = engine_for t in
  let extra_cuts = fresh_cuts t.cfg.options topo t.cfg.paths envelope in
  let options =
    {
      t.cfg.options with
      Raha.Analysis.sx_iters =
        (match budget with
        | Some _ -> budget
        | None -> t.cfg.options.Raha.Analysis.sx_iters);
      max_nodes =
        (match max_nodes with
        | Some m -> min m t.cfg.options.Raha.Analysis.max_nodes
        | None -> t.cfg.options.Raha.Analysis.max_nodes);
    }
  in
  let r =
    Raha.Analysis.analyze ?screen ~extra_cuts ~options topo t.cfg.paths envelope
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
      ("cuts_fresh", Json.Int (List.length extra_cuts));
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
let solve_scoped t ~verdict ~budget ~max_nodes =
  let scope = Milp.Lp_stats.scope_enter () in
  let answer, elapsed, certificate = solve_worst t ~verdict ~budget ~max_nodes in
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
    let answer, elapsed, report = solve_scoped t ~verdict ~budget ~max_nodes in
    (match verdict with
    | Policy.Warm -> t.n_warm <- t.n_warm + 1
    | Policy.Cached | Policy.Cold -> t.n_cold <- t.n_cold + 1);
    ok
      (answer
      @ freshness
          ~provenance:(Policy.verdict_name verdict)
          ~events_at:(State.events_applied t.state) t
      @ [ ("elapsed", Json.float elapsed); ("counters", counters_json report) ])

let now_answer t ~down ~deg ~prob ~cert ~counters =
  let events_at = State.events_applied t.state in
  ok
    ([
       ("kind", Json.String "now");
       ("down", scenario_json down);
       ( "degradation",
         match deg with Some d -> Json.float d | None -> Json.Null );
       ("prob", Json.float prob);
       ("cert", Json.String cert);
     ]
    @ freshness ~provenance:"overlay" ~events_at t
    @ [ ("counters", counters) ])

(* Concurrent overlay evaluation: the engine is immutable and overlay
   solves are pure, so a batch of "now" queries fans out on the
   parallel pool (a single query runs inline). The order-preserving map
   keeps the answer sequence bit-identical whatever the domain count,
   and one counter scope around the batch — engine (re)build included —
   sees every overlay (the pool credits worker-domain work back to this
   domain). Per-query counter attribution is impossible under work
   stealing, so the batch shares one counters/cert verdict — a failure
   of any overlay audit taints the whole batch. *)
let now_many t downs =
  let scope = Milp.Lp_stats.scope_enter () in
  let topo = State.current_topology t.state in
  let results =
    match engine_for t with
    | None ->
      Array.map (fun _ -> Error "healthy network cannot route the screening demand") downs
    | Some eng ->
      let live = State.live_down t.state in
      let evaluate d =
        let down = match d with Some d -> d | None -> live in
        match Failure.Scenario.of_links topo down with
        | exception Invalid_argument m -> Error m
        | scenario ->
          Ok
            ( down,
              Te.Simulate.degradation_prepared eng scenario,
              Failure.Scenario.prob topo scenario )
      in
      let domains = max 1 t.cfg.options.Raha.Analysis.domains in
      if domains = 1 || Array.length downs <= 1 then Array.map evaluate downs
      else
        Parallel.Pool.with_pool ~domains (fun pool ->
            Parallel.Pool.map_array pool evaluate downs)
  in
  let report = Milp.Lp_stats.scope_exit scope in
  let cert = cert_of_counters report.Milp.Lp_stats.scope_counters in
  let counters = counters_json report in
  Array.map
    (function
      | Error m -> err m
      | Ok (down, deg, prob) -> now_answer t ~down ~deg ~prob ~cert ~counters)
    results

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

(* Fast stage (Raha.Alert stage 1): worst case at the demand fixed to
   the envelope's upper corner — the observed peak — under a quarter of
   the configured time budget. No screening engine or injected cuts:
   both are built over the variable envelope, not this fixed one. *)
let alert_fast t =
  let topo = State.current_topology t.state in
  let peak = (State.envelope t.state).Traffic.Envelope.hi in
  let options =
    {
      t.cfg.options with
      Raha.Analysis.time_limit = t.cfg.options.Raha.Analysis.time_limit /. 4.;
    }
  in
  Raha.Analysis.analyze ~options topo t.cfg.paths (Traffic.Envelope.fixed peak)

(* Deep stage (stage 2): the worst query over the live envelope — same
   invalidation policy, same cache: a Cached verdict re-reads the cached
   report, and a deep solve conversely warms the cache for later worst
   queries. Alert evaluations keep their own tallies
   ({!Alerting.stats}), not the cached/warm/cold ones. *)
let alert_deep t =
  (match worst_verdict t with
  | Policy.Cached -> ()
  | verdict -> ignore (solve_scoped t ~verdict ~budget:None ~max_nodes:None));
  match t.cached with
  | Some c -> c.report
  | None -> assert false (* solve_scoped always fills the cache *)

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
      match alert_deep t with
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
    try (now_many t [| down |]).(0)
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
