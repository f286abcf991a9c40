type event =
  | Link_down of { lag : int; link : int; at : float }
  | Link_up of { lag : int; link : int; at : float }
  | Capacity of { lag : int; link : int; capacity : float; at : float }
  | Demand of { src : int; dst : int; lo : float; hi : float; at : float }

type query =
  | Worst of { budget : int option; max_nodes : int option }
  | Now of { down : (int * int) list option }
  | Status

type request =
  | Event of event
  | Query of query
  | Subscribe of { tolerance : float option }
  | Shutdown

let ( let* ) = Result.bind

let field_int j key =
  match Json.to_int (Json.member key j) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-integer %S" key)

let field_float j key =
  match Json.to_float (Json.member key j) with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or non-numeric %S" key)

let opt_int j key =
  match Json.member key j with
  | Json.Null -> Ok None
  | v -> (
    match Json.to_int v with
    | Some i -> Ok (Some i)
    | None -> Error (Printf.sprintf "non-integer %S" key))

let opt_float j key =
  match Json.member key j with
  | Json.Null -> Ok None
  | v -> (
    match Json.to_float v with
    | Some f -> Ok (Some f)
    | None -> Error (Printf.sprintf "non-numeric %S" key))

let demand_of_json j =
  let* src = field_int j "src" in
  let* dst = field_int j "dst" in
  let* lo = field_float j "lo" in
  let* hi = field_float j "hi" in
  let* at = field_float j "t" in
  Ok (Demand { src; dst; lo; hi; at })

let event_of_json j =
  let* ev =
    match Json.to_str (Json.member "ev" j) with
    | Some s -> Ok s
    | None -> Error "missing \"ev\""
  in
  let* lag = field_int j "lag" in
  let* link = field_int j "link" in
  let* at = field_float j "t" in
  match ev with
  | "down" -> Ok (Link_down { lag; link; at })
  | "up" -> Ok (Link_up { lag; link; at })
  | "capacity" ->
    let* capacity = field_float j "cap" in
    Ok (Capacity { lag; link; capacity; at })
  | "demand" -> Error "demand events use {\"op\":\"demand\",...}"
  | s -> Error (Printf.sprintf "unknown event kind %S" s)

let links_of_json j =
  match j with
  | Json.Null -> Ok None
  | Json.List items ->
    let rec go acc = function
      | [] -> Ok (Some (List.rev acc))
      | Json.List [ a; b ] :: rest -> (
        match (Json.to_int a, Json.to_int b) with
        | Some lag, Some link -> go ((lag, link) :: acc) rest
        | _ -> Error "\"down\" entries must be [lag, link] integer pairs")
      | _ -> Error "\"down\" entries must be [lag, link] integer pairs"
    in
    go [] items
  | _ -> Error "\"down\" must be a list of [lag, link] pairs"

let query_of_json j =
  match Json.to_str (Json.member "q" j) with
  | Some "worst" ->
    let* budget = opt_int j "budget" in
    let* max_nodes = opt_int j "max_nodes" in
    Ok (Worst { budget; max_nodes })
  | Some "now" ->
    let* down = links_of_json (Json.member "down" j) in
    Ok (Now { down })
  | Some "status" -> Ok Status
  | Some s -> Error (Printf.sprintf "unknown query %S" s)
  | None -> Error "missing \"q\""

let request_of_json j =
  match Json.to_str (Json.member "op" j) with
  | Some "event" ->
    let* e = event_of_json j in
    Ok (Event e)
  | Some "demand" ->
    let* e = demand_of_json j in
    Ok (Event e)
  | Some "query" ->
    let* q = query_of_json j in
    Ok (Query q)
  | Some "subscribe" ->
    let* tolerance = opt_float j "tolerance" in
    (match tolerance with
    | Some t when not (Float.is_finite t && t >= 0.) ->
      Error "\"tolerance\" must be a non-negative finite number"
    | _ -> Ok (Subscribe { tolerance }))
  | Some "shutdown" -> Ok Shutdown
  | Some s -> Error (Printf.sprintf "unknown op %S" s)
  | None -> Error "missing \"op\""

let request_of_line line =
  match Json.of_string line with
  | Error msg -> Error (Printf.sprintf "bad json: %s" msg)
  | Ok j -> request_of_json j

let json_of_event e =
  let base kind lag link at rest =
    Json.Obj
      ([
         ("op", Json.String "event");
         ("ev", Json.String kind);
         ("lag", Json.Int lag);
         ("link", Json.Int link);
       ]
      @ rest
      @ [ ("t", Json.float at) ])
  in
  match e with
  | Link_down { lag; link; at } -> base "down" lag link at []
  | Link_up { lag; link; at } -> base "up" lag link at []
  | Capacity { lag; link; capacity; at } ->
    base "capacity" lag link at [ ("cap", Json.float capacity) ]
  | Demand { src; dst; lo; hi; at } ->
    Json.Obj
      [
        ("op", Json.String "demand");
        ("src", Json.Int src);
        ("dst", Json.Int dst);
        ("lo", Json.float lo);
        ("hi", Json.float hi);
        ("t", Json.float at);
      ]

let json_of_query q =
  let fields =
    match q with
    | Worst { budget; max_nodes } ->
      [ ("q", Json.String "worst") ]
      @ (match budget with Some b -> [ ("budget", Json.Int b) ] | None -> [])
      @ (match max_nodes with
        | Some m -> [ ("max_nodes", Json.Int m) ]
        | None -> [])
    | Now { down } ->
      [ ("q", Json.String "now") ]
      @ (match down with
        | Some links ->
          [
            ( "down",
              Json.List
                (List.map
                   (fun (e, i) -> Json.List [ Json.Int e; Json.Int i ])
                   links) );
          ]
        | None -> [])
    | Status -> [ ("q", Json.String "status") ]
  in
  Json.Obj (("op", Json.String "query") :: fields)

let json_of_request = function
  | Event e -> json_of_event e
  | Query q -> json_of_query q
  | Subscribe { tolerance } ->
    Json.Obj
      (("op", Json.String "subscribe")
      ::
      (match tolerance with
      | Some t -> [ ("tolerance", Json.float t) ]
      | None -> []))
  | Shutdown -> Json.Obj [ ("op", Json.String "shutdown") ]
