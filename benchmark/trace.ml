(* Spans recorded from outside the program: each wraps a call into one
   layer's public functions and carries the solver counters that moved
   inside it (Lp_stats scope deltas, which nest LIFO like the spans).
   Spans stay in memory and are written as JSONL when the run ends. *)

let hooks =
  Milp.Solver.stats_counters @ [ ("bb-rounds", Milp.Branch_bound.cumulative_rounds) ]

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  op : int;  (** the operation (analysis, sweep call, request) it belongs to *)
  name : string;
  start : float;  (** seconds since the tracer was created *)
  stop : float;
  counters : (string * int) list;  (** nonzero deltas only *)
}

type frame = {
  f_id : int;
  f_parent : int;
  f_op : int;
  f_name : string;
  f_start : float;
  f_scope : Milp.Lp_stats.scope;
}

type t = {
  workload : string;
  origin : float;
  mutable next_id : int;
  mutable stack : frame list;
  mutable finished : span list;  (* most recent first *)
}

let create workload =
  { workload; origin = Unix.gettimeofday (); next_id = 1; stack = []; finished = [] }

let enter ?op t name =
  let parent, inherited = match t.stack with f :: _ -> (f.f_id, f.f_op) | [] -> (0, 0) in
  let f_scope = Milp.Lp_stats.scope_enter ~hooks () in
  let frame =
    {
      f_id = t.next_id;
      f_parent = parent;
      f_op = Option.value op ~default:inherited;
      f_name = name;
      f_start = Unix.gettimeofday () -. t.origin;
      f_scope;
    }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- frame :: t.stack

(* Close the innermost open span; [name] renames it, for spans whose
   name depends on the result (a query's provenance). *)
let exit ?name t =
  match t.stack with
  | [] -> invalid_arg "Trace.exit: no open span"
  | f :: rest ->
    let stop = Unix.gettimeofday () -. t.origin in
    let report = Milp.Lp_stats.scope_exit f.f_scope in
    t.stack <- rest;
    t.finished <-
      {
        id = f.f_id;
        parent = f.f_parent;
        op = f.f_op;
        name = Option.value name ~default:f.f_name;
        start = f.f_start;
        stop;
        counters =
          List.filter (fun (_, v) -> v <> 0) report.Milp.Lp_stats.scope_counters;
      }
      :: t.finished

let span ?op t name f =
  enter ?op t name;
  match f () with
  | v ->
    exit t;
    v
  | exception e ->
    exit t;
    raise e

(* [with_span tr ...] is [span] when tracing and a plain call otherwise. *)
let with_span tr ?op name f = match tr with Some t -> span ?op t name f | None -> f ()

(* [with_span] for a span whose name depends on the result (a query's
   provenance). *)
let with_named_span tr name_of f =
  match tr with
  | None -> f ()
  | Some t -> (
    enter t "";
    match f () with
    | v ->
      exit ~name:(name_of v) t;
      v
    | exception e ->
      exit t;
      raise e)

let spans t = List.rev t.finished

(* The most recently closed span. *)
let last t = match t.finished with s :: _ -> s | [] -> invalid_arg "Trace.last: no span"
let duration s = s.stop -. s.start
let named t name = List.filter (fun s -> s.name = name) (spans t)
let durations t name = List.map duration (named t name)
let total t name = List.fold_left ( +. ) 0. (durations t name)

(* A deterministic counters record: the nonzero counters, in hook order. *)
let record counters =
  String.concat " "
    (List.filter_map
       (fun (k, v) -> if v = 0 then None else Some (Printf.sprintf "%s=%d" k v))
       counters)

let counter_of s key = match List.assoc_opt key s.counters with Some v -> v | None -> 0

let counter t name key =
  List.fold_left (fun acc s -> acc + counter_of s key) 0 (named t name)

(* Share of the named root spans' time covered by their direct children. *)
let coverage t root =
  let roots = named t root in
  let ids = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace ids s.id ()) roots;
  let covered =
    List.fold_left
      (fun acc s -> if Hashtbl.mem ids s.parent then acc +. duration s else acc)
      0. t.finished
  in
  let whole = List.fold_left (fun acc s -> acc +. duration s) 0. roots in
  if whole > 0. then covered /. whole else 0.

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          let j =
            Service.Json.Obj
              [
                ("id", Service.Json.Int s.id);
                ("parent", Service.Json.Int s.parent);
                ("workload", Service.Json.String t.workload);
                ("op", Service.Json.Int s.op);
                ("name", Service.Json.String s.name);
                ("start", Service.Json.float s.start);
                ("end", Service.Json.float s.stop);
                ( "counters",
                  Service.Json.Obj
                    (List.map (fun (k, v) -> (k, Service.Json.Int v)) s.counters) );
              ]
          in
          output_string oc (Service.Json.to_string j);
          output_char oc '\n')
        (spans t))
