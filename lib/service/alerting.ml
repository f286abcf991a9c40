type stage_result = { fields : (string * Json.t) list; evidence : Raha.Alert.evidence }

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

(* what a missing stage proves: nothing, so it decides no one *)
let nothing = { fields = []; evidence = { Raha.Alert.lo = neg_infinity; hi = infinity; per = 1. } }

(* One stage's crossings under {!Raha.Alert.decide}: each subscriber in
   [undecided] that [r] decides leaves it, and gets an alert (exceeded)
   or a clear (within) when that flips its state. Flushed when any went
   out; the number sent. *)
let cross t ~flush undecided name r =
  let sent = ref 0 in
  undecided :=
    List.filter
      (fun s ->
        let tol = tolerance_of t s in
        match Raha.Alert.decide r.evidence ~tolerance:tol with
        | Raha.Alert.Open -> true
        | d ->
          let alert = d = Raha.Alert.Exceeded in
          if alert <> s.alerting then begin
            s.alerting <- alert;
            if alert then t.alerts <- t.alerts + 1 else t.clears <- t.clears + 1;
            push t s
              (notification ~push:(if alert then "alert" else "clear") ~stage:name
                 ~tolerance:tol r.fields);
            incr sent
          end;
          false)
      !undecided;
  if !sent > 0 then flush ();
  !sent

(* [x] above [y] by more than 1e-6 relative (floor 1); an unproved end
   (infinite) is above nothing and nothing is above it *)
let above x y =
  Float.is_finite x && Float.is_finite y && x > y +. (1e-6 *. Float.max 1. (Float.abs y))

let evaluate t ~witness ~bound ~fast ~deep ~flush =
  if t.subs <> [] then begin
    t.evaluations <- t.evaluations + 1;
    let undecided = ref t.subs in
    let ev r = (Option.value r ~default:nothing).evidence in
    let cross name r = cross t ~flush undecided name (Option.value r ~default:nothing) in
    (* the witness alerts and the bound clears before any solve starts *)
    t.witness <- t.witness + cross "witness" witness;
    t.bound <- t.bound + cross "bound" bound;
    let fast = fast () in
    ignore (cross "fast" fast);
    if above (ev witness).lo (ev fast).lo then t.wbad <- t.wbad + 1;
    let deep =
      if Option.is_some fast && !undecided <> [] then begin
        t.deep_runs <- t.deep_runs + 1;
        let d = deep () in
        ignore (cross "deep" d);
        d
      end
      else None
    in
    if above (ev fast).lo (ev bound).hi || above (ev deep).lo (ev bound).hi then
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
