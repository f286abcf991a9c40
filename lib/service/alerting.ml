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
  bound : int;
  bbad : int;
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
  mutable bound : int;
  mutable bbad : int;
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
    bound = 0;
    bbad = 0;
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

type crossing = Alert | Clear

(* Stage [name]'s crossings: [pick s tol] is the notification, if any,
   subscriber [s] at tolerance [tol] gets, and its state flips to match.
   Flushed when any went out; the number sent. *)
let cross t ~flush name (r : stage_result) pick =
  let sent = ref 0 in
  List.iter
    (fun s ->
      let tol = tolerance_of t s in
      match pick s tol with
      | None -> ()
      | Some c ->
        s.alerting <- c = Alert;
        if c = Alert then t.alerts <- t.alerts + 1 else t.clears <- t.clears + 1;
        push t s
          (notification ~push:(if c = Alert then "alert" else "clear") ~stage:name
             ~tolerance:tol r.fields);
        incr sent)
    t.subs;
  if !sent > 0 then flush ();
  !sent

(* [a]'s degradation above [b]'s by more than 1e-6 relative (floor 1) *)
let above (a : stage_result) (b : stage_result) =
  a.usable && b.usable
  && a.degradation > b.degradation +. (1e-6 *. Float.max 1. (Float.abs b.degradation))

let evaluate t ~witness ~bound ~fast ~deep ~flush =
  if t.subs <> [] then begin
    t.evaluations <- t.evaluations + 1;
    let alert_on (r : stage_result) s tol =
      if r.usable && r.exceeds tol && not s.alerting then Some Alert else None
    in
    (* stage 0: the replayed witness alerts before any solve starts *)
    t.witness <- t.witness + cross t ~flush "witness" witness (alert_on witness);
    let witnessed tol = witness.usable && witness.exceeds tol in
    (* ... and the bound clears, before any solve, every alerting
       subscriber it settles: no answer can exceed its tolerance *)
    let settled tol = bound.usable && (not (bound.exceeds tol)) && not (witnessed tol) in
    t.bound <-
      t.bound
      + cross t ~flush "bound" bound (fun s tol ->
            if s.alerting && settled tol then Some Clear else None);
    (* stage 1: fast exceeders alert immediately *)
    let fast = fast () in
    if above witness fast then t.wbad <- t.wbad + 1;
    ignore
      (cross t ~flush "fast" fast (fun s tol ->
           if settled tol then None else alert_on fast s tol));
    let early tol = settled tol || witnessed tol || fast.exceeds tol in
    (* stage 2: anyone neither settled nor above an early stage needs
       the deep answer, either to alert on it or to clear *)
    let needs_deep =
      fast.usable && List.exists (fun s -> not (early (tolerance_of t s))) t.subs
    in
    let deep =
      if needs_deep then begin
        t.deep_runs <- t.deep_runs + 1;
        let d = deep () in
        if d.usable then
          ignore
            (cross t ~flush "deep" d (fun s tol ->
                 if early tol then None
                 else if d.exceeds tol then alert_on d s tol
                 else if s.alerting then (* every stage below tolerance *) Some Clear
                 else None));
        Some d
      end
      else None
    in
    if above fast bound || Option.fold deep ~none:false ~some:(fun d -> above d bound) then
      t.bbad <- t.bbad + 1
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
    bound = t.bound;
    bbad = t.bbad;
    deep_runs = t.deep_runs;
    dropped = t.dropped;
  }
