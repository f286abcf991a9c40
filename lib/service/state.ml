(* Flattened link addressing: links of lag 0, then lag 1, ... — the
   same order everywhere (estimates vector, live_down, rebuilds), so
   replay is deterministic by construction. *)

type t = {
  base : Wan.Topology.t;
  offsets : int array;  (* first flat index of each lag *)
  total : int;
  mutable est : Failure.Renewal.Incr.t array;
  capacity : float array;  (* current provisioned capacity per link *)
  configured_prob : float array;
  mutable envelope : Traffic.Envelope.t;
  mutable clock : float;
  mutable events : int;
  mutable structure_gen : int;
  mutable memo : (int * Wan.Topology.t) option;
      (* topology rebuilt at event count [fst] *)
}

let create ~envelope base =
  let nl = Wan.Topology.num_lags base in
  let offsets = Array.make nl 0 in
  let total = ref 0 in
  for e = 0 to nl - 1 do
    offsets.(e) <- !total;
    total := !total + Wan.Lag.num_links (Wan.Topology.lag base e)
  done;
  let total = !total in
  let capacity = Array.make total 0. in
  let configured_prob = Array.make total 0. in
  for e = 0 to nl - 1 do
    let lag = Wan.Topology.lag base e in
    Array.iteri
      (fun i (l : Wan.Lag.link) ->
        capacity.(offsets.(e) + i) <- l.Wan.Lag.link_capacity;
        configured_prob.(offsets.(e) + i) <- l.Wan.Lag.fail_prob)
      lag.Wan.Lag.links
  done;
  {
    base;
    offsets;
    total;
    est = Array.make total Failure.Renewal.Incr.empty;
    capacity;
    configured_prob;
    envelope;
    clock = 0.;
    events = 0;
    structure_gen = 0;
    memo = None;
  }

let flat t ~lag ~link =
  if lag < 0 || lag >= Array.length t.offsets then
    Error (Printf.sprintf "no such lag %d" lag)
  else begin
    let n = Wan.Lag.num_links (Wan.Topology.lag t.base lag) in
    if link < 0 || link >= n then
      Error (Printf.sprintf "lag %d has no link %d" lag link)
    else Ok (t.offsets.(lag) + link)
  end

let ( let* ) = Result.bind

let check_time t at =
  if not (Float.is_finite at) then Error (Printf.sprintf "event time is %g" at)
  else if at < t.clock then
    Error
      (Printf.sprintf "time regression: event at %g, clock at %g" at t.clock)
  else Ok ()

let apply t ev =
  let applied ?(structural = false) at =
    t.clock <- Float.max t.clock at;
    t.events <- t.events + 1;
    if structural then t.structure_gen <- t.structure_gen + 1;
    t.memo <- None;
    Ok structural
  in
  match (ev : Event.event) with
  | Event.Link_down { lag; link; at } ->
    let* k = flat t ~lag ~link in
    let* () = check_time t at in
    let* e =
      try Ok (Failure.Renewal.Incr.down t.est.(k) ~at)
      with Invalid_argument m -> Error m
    in
    t.est.(k) <- e;
    applied at
  | Event.Link_up { lag; link; at } ->
    let* k = flat t ~lag ~link in
    let* () = check_time t at in
    let* e =
      try Ok (Failure.Renewal.Incr.up t.est.(k) ~at)
      with Invalid_argument m -> Error m
    in
    t.est.(k) <- e;
    applied at
  | Event.Capacity { lag; link; capacity; at } ->
    let* k = flat t ~lag ~link in
    let* () = check_time t at in
    if not (capacity > 0. && Float.is_finite capacity) then
      Error "capacity must be positive and finite"
    else begin
      t.capacity.(k) <- capacity;
      applied ~structural:true at
    end
  | Event.Demand { src; dst; lo; hi; at } ->
    let* () = check_time t at in
    if
      not
        (Float.is_finite lo && Float.is_finite hi && lo >= 0. && hi >= lo)
    then Error "demand bounds must satisfy 0 <= lo <= hi, finite"
    else if
      (* only re-forecasts of pairs the model already carries: a brand-new
         pair would change the LP's variable set mid-stream, which no
         cached artifact (or the paper's model) anticipates *)
      not (List.mem (src, dst) (Traffic.Envelope.pairs t.envelope))
    then Error (Printf.sprintf "no demand pair (%d, %d) in the envelope" src dst)
    else begin
      t.envelope <-
        {
          Traffic.Envelope.lo =
            Traffic.Demand.set t.envelope.Traffic.Envelope.lo ~src ~dst lo;
          hi = Traffic.Demand.set t.envelope.Traffic.Envelope.hi ~src ~dst hi;
        };
      applied ~structural:true at
    end

let events_applied t = t.events
let envelope t = t.envelope
let clock t = t.clock
let structure_generation t = t.structure_gen

let live_down t =
  let out = ref [] in
  for e = Array.length t.offsets - 1 downto 0 do
    let n = Wan.Lag.num_links (Wan.Topology.lag t.base e) in
    for i = n - 1 downto 0 do
      if Failure.Renewal.Incr.is_down t.est.(t.offsets.(e) + i) then
        out := (e, i) :: !out
    done
  done;
  !out

let num_down t =
  let c = ref 0 in
  Array.iter (fun e -> if Failure.Renewal.Incr.is_down e then incr c) t.est;
  !c

(* Estimate discipline (= Failure.Trace.calibrate_topology): clamp to
   [1e-6, 0.99] so log-probabilities stay finite; links with no
   telemetry (and the whole stream before its first event) keep the
   configured probability. *)
let estimate_at t k =
  let e = t.est.(k) in
  if
    t.clock <= 0.
    || (Failure.Renewal.Incr.count e = 0 && not (Failure.Renewal.Incr.is_down e))
  then t.configured_prob.(k)
  else
    let p = Failure.Renewal.Incr.estimate ~horizon:t.clock e in
    Float.min 0.99 (Float.max 1e-6 p)

let estimates t = Array.init t.total (estimate_at t)

let current_topology t =
  match t.memo with
  | Some (ev, topo) when ev = t.events -> topo
  | _ ->
    let nl = Wan.Topology.num_lags t.base in
    let lags =
      List.init nl (fun e ->
          let lag = Wan.Topology.lag t.base e in
          let links =
            Array.to_list
              (Array.mapi
                 (fun i (_ : Wan.Lag.link) ->
                   let k = t.offsets.(e) + i in
                   {
                     Wan.Lag.link_capacity = t.capacity.(k);
                     fail_prob = estimate_at t k;
                   })
                 lag.Wan.Lag.links)
          in
          Wan.Lag.make ~id:e ~src:lag.Wan.Lag.src ~dst:lag.Wan.Lag.dst links)
    in
    let names =
      Array.init (Wan.Topology.num_nodes t.base) (Wan.Topology.node_name t.base)
    in
    let topo =
      Wan.Topology.create ~node_names:names
        ~name:(Wan.Topology.name t.base)
        ~num_nodes:(Wan.Topology.num_nodes t.base)
        lags
    in
    t.memo <- Some (t.events, topo);
    topo
