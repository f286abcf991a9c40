type stage_result = {
  fields : (string * Json.t) list;
  exceeds : float -> bool;
  degradation : float;
  usable : bool;
}

type stats = {
  evaluations : int;
  alerts : int;
  witness : int;
  wbad : int;
  clears : int;
  deep_runs : int;
  dropped : int;
}

type sub = {
  id : int;
  tolerance : float option;
  mutable alerting : bool;
  queue : string Queue.t;  (* complete newline-terminated lines *)
  mutable inflight : string option;  (* line being written *)
  mutable inflight_off : int;
}

type t = {
  default_tolerance : float;
  queue_cap : int;
  mutable subs : sub list;  (* in subscription order, for determinism *)
  mutable evaluations : int;
  mutable alerts : int;
  mutable witness : int;
  mutable wbad : int;
  mutable clears : int;
  mutable deep_runs : int;
  mutable dropped : int;
}

let create ?(queue_cap = 64) ~tolerance () =
  {
    default_tolerance = tolerance;
    queue_cap;
    subs = [];
    evaluations = 0;
    alerts = 0;
    witness = 0;
    wbad = 0;
    clears = 0;
    deep_runs = 0;
    dropped = 0;
  }

let find t id = List.find_opt (fun s -> s.id = id) t.subs

let subscribe t ~id ~tolerance =
  match find t id with
  | Some _ ->
    (* keep the queue (lines already owed to the client) but take the
       new tolerance and restart the crossing state *)
    t.subs <-
      List.map
        (fun s -> if s.id = id then { s with tolerance; alerting = false } else s)
        t.subs
  | None ->
    t.subs <-
      t.subs
      @ [
          {
            id;
            tolerance;
            alerting = false;
            queue = Queue.create ();
            inflight = None;
            inflight_off = 0;
          };
        ]

let unsubscribe t ~id = t.subs <- List.filter (fun s -> s.id <> id) t.subs
let subscribed t ~id = find t id <> None
let subscribers t = List.length t.subs

let push t s line =
  let line =
    if String.length line > 0 && line.[String.length line - 1] = '\n' then line
    else line ^ "\n"
  in
  if Queue.length s.queue >= t.queue_cap then begin
    ignore (Queue.pop s.queue);
    t.dropped <- t.dropped + 1
  end;
  Queue.push line s.queue

let enqueue t ~id line =
  match find t id with None -> () | Some s -> push t s line

let tolerance_of t s = Option.value s.tolerance ~default:t.default_tolerance

let notification ~push ~stage ~tolerance fields =
  Json.to_string
    (Json.Obj
       ([
          ("push", Json.String push);
          ("stage", Json.String stage);
          ("tolerance", Json.float tolerance);
        ]
       @ fields))

(* An alert from stage [name] to every quiet subscriber it exceeds,
   flushed when any went out; the number sent. *)
let alert_from t ~flush name (r : stage_result) =
  let sent = ref 0 in
  List.iter
    (fun s ->
      let tol = tolerance_of t s in
      if r.usable && r.exceeds tol && not s.alerting then begin
        s.alerting <- true;
        t.alerts <- t.alerts + 1;
        push t s (notification ~push:"alert" ~stage:name ~tolerance:tol r.fields);
        incr sent
      end)
    t.subs;
  if !sent > 0 then flush ();
  !sent

let evaluate t ~witness ~fast ~deep ~flush =
  if t.subs <> [] then begin
    t.evaluations <- t.evaluations + 1;
    (* stage 0: the replayed witness alerts before any solve starts *)
    t.witness <- t.witness + alert_from t ~flush "witness" witness;
    (* stage 1: fast exceeders alert immediately *)
    let fast = fast () in
    if
      witness.usable && fast.usable
      && witness.degradation > fast.degradation +. (1e-6 *. Float.max 1. (Float.abs fast.degradation))
    then t.wbad <- t.wbad + 1;
    ignore (alert_from t ~flush "fast" fast);
    let early tol = (witness.usable && witness.exceeds tol) || fast.exceeds tol in
    (* stage 2: anyone below both early stages needs the deep answer,
       either to alert on it or to clear *)
    let needs_deep =
      fast.usable && List.exists (fun s -> not (early (tolerance_of t s))) t.subs
    in
    if needs_deep then begin
      t.deep_runs <- t.deep_runs + 1;
      let d = deep () in
      if d.usable then begin
        let sent = ref false in
        List.iter
          (fun s ->
            let tol = tolerance_of t s in
            if not (early tol) then
              if d.exceeds tol then begin
                if not s.alerting then begin
                  s.alerting <- true;
                  t.alerts <- t.alerts + 1;
                  push t s
                    (notification ~push:"alert" ~stage:"deep" ~tolerance:tol
                       d.fields);
                  sent := true
                end
              end
              else if s.alerting then begin
                (* every stage below tolerance: the degradation cleared *)
                s.alerting <- false;
                t.clears <- t.clears + 1;
                push t s
                  (notification ~push:"clear" ~stage:"deep" ~tolerance:tol
                     d.fields);
                sent := true
              end)
          t.subs;
        if !sent then flush ()
      end
    end
  end

let has_pending s = s.inflight <> None || not (Queue.is_empty s.queue)

let pending_ids t =
  List.filter_map (fun s -> if has_pending s then Some s.id else None) t.subs

let next_chunk t ~id =
  match find t id with
  | None -> None
  | Some s -> (
    match s.inflight with
    | Some line -> Some (line, s.inflight_off)
    | None ->
      if Queue.is_empty s.queue then None
      else begin
        let line = Queue.pop s.queue in
        s.inflight <- Some line;
        s.inflight_off <- 0;
        Some (line, 0)
      end)

let advance t ~id n =
  match find t id with
  | None -> ()
  | Some s -> (
    match s.inflight with
    | None -> ()
    | Some line ->
      s.inflight_off <- s.inflight_off + n;
      if s.inflight_off >= String.length line then begin
        s.inflight <- None;
        s.inflight_off <- 0
      end)

let stats t =
  {
    evaluations = t.evaluations;
    alerts = t.alerts;
    witness = t.witness;
    wbad = t.wbad;
    clears = t.clears;
    deep_runs = t.deep_runs;
    dropped = t.dropped;
  }
