type t = {
  tname : string;
  n : int;
  node_names : string array;
  lag_arr : Lag.t array;
  adj : (int * int) list array;
}

let create ?node_names ~name ~num_nodes lag_list =
  if num_nodes <= 0 then invalid_arg "Topology.create: num_nodes <= 0";
  let node_names =
    match node_names with
    | Some a ->
      if Array.length a <> num_nodes then
        invalid_arg "Topology.create: node_names length mismatch";
      a
    | None -> Array.init num_nodes (Printf.sprintf "n%d")
  in
  let lag_arr = Array.of_list lag_list in
  Array.iteri
    (fun i (l : Lag.t) ->
      if l.Lag.lag_id <> i then invalid_arg "Topology.create: LAG ids must be dense";
      if l.Lag.src >= num_nodes || l.Lag.dst >= num_nodes then
        invalid_arg "Topology.create: endpoint out of range")
    lag_arr;
  let adj = Array.make num_nodes [] in
  Array.iter
    (fun (l : Lag.t) ->
      adj.(l.Lag.src) <- (l.Lag.dst, l.Lag.lag_id) :: adj.(l.Lag.src);
      adj.(l.Lag.dst) <- (l.Lag.src, l.Lag.lag_id) :: adj.(l.Lag.dst))
    lag_arr;
  { tname = name; n = num_nodes; node_names; lag_arr; adj }

let name t = t.tname
let num_nodes t = t.n
let num_lags t = Array.length t.lag_arr
let num_links t = Array.fold_left (fun acc l -> acc + Lag.num_links l) 0 t.lag_arr
let lags t = Array.copy t.lag_arr

let lag t i =
  if i < 0 || i >= Array.length t.lag_arr then invalid_arg "Topology.lag";
  t.lag_arr.(i)

let node_name t i =
  if i < 0 || i >= t.n then invalid_arg "Topology.node_name";
  t.node_names.(i)

let node_id t name =
  let rec find i =
    if i >= t.n then raise Not_found
    else if t.node_names.(i) = name then i
    else find (i + 1)
  in
  find 0

let neighbors t v =
  if v < 0 || v >= t.n then invalid_arg "Topology.neighbors";
  t.adj.(v)

let lag_between t u v =
  let candidates =
    List.filter_map (fun (w, id) -> if w = v then Some id else None) (neighbors t u)
  in
  match List.sort compare candidates with
  | [] -> None
  | id :: _ -> Some t.lag_arr.(id)

let avg_lag_capacity t =
  let m = num_lags t in
  if m = 0 then 0.
  else Array.fold_left (fun acc l -> acc +. Lag.capacity l) 0. t.lag_arr /. float_of_int m

let is_connected t =
  let seen = Array.make t.n false in
  let rec dfs v =
    seen.(v) <- true;
    List.iter (fun (w, _) -> if not seen.(w) then dfs w) t.adj.(v)
  in
  dfs 0;
  Array.for_all Fun.id seen

let rebuild t lag_list = create ~node_names:t.node_names ~name:t.tname ~num_nodes:t.n lag_list

let with_lag_links t ~lag_id links =
  let lag_list =
    Array.to_list t.lag_arr
    |> List.map (fun (l : Lag.t) ->
           if l.Lag.lag_id = lag_id then
             Lag.make ~id:lag_id ~src:l.Lag.src ~dst:l.Lag.dst links
           else l)
  in
  rebuild t lag_list

let add_lag t ~src ~dst links =
  let id = num_lags t in
  rebuild t (Array.to_list t.lag_arr @ [ Lag.make ~id ~src ~dst links ])

let pp ppf t =
  Format.fprintf ppf "%s: %d nodes, %d LAGs, %d links, avg LAG capacity %g"
    t.tname t.n (num_lags t) (num_links t) (avg_lag_capacity t)
