module S = Set.Make (struct
  type t = int * int

  let compare = compare
end)

type t = S.t

let empty = S.empty

let of_links topo links =
  List.fold_left
    (fun acc (lag_id, link_idx) ->
      let lag =
        try Wan.Topology.lag topo lag_id
        with Invalid_argument _ -> invalid_arg "Scenario.of_links: bad lag id"
      in
      if link_idx < 0 || link_idx >= Wan.Lag.num_links lag then
        invalid_arg "Scenario.of_links: bad link index";
      if S.mem (lag_id, link_idx) acc then invalid_arg "Scenario.of_links: duplicate link";
      S.add (lag_id, link_idx) acc)
    S.empty links

let links t = S.elements t
let num_failed t = S.cardinal t
let is_down t ~lag ~link = S.mem (lag, link) t

let lag_capacity topo t lag_id =
  let lag = Wan.Topology.lag topo lag_id in
  let acc = ref 0. in
  Array.iteri
    (fun i (l : Wan.Lag.link) ->
      if not (S.mem (lag_id, i) t) then acc := !acc +. l.Wan.Lag.link_capacity)
    lag.Wan.Lag.links;
  !acc

let lag_down topo t lag_id =
  let lag = Wan.Topology.lag topo lag_id in
  let n = Wan.Lag.num_links lag in
  let rec all i = i >= n || (S.mem (lag_id, i) t && all (i + 1)) in
  all 0

let path_down topo t lag_ids = List.exists (lag_down topo t) lag_ids

let log_prob topo t =
  let acc = ref 0. in
  Array.iter
    (fun (lag : Wan.Lag.t) ->
      Array.iteri
        (fun i (l : Wan.Lag.link) ->
          let p = l.Wan.Lag.fail_prob in
          if S.mem (lag.Wan.Lag.lag_id, i) t then
            acc := !acc +. (if p > 0. then Float.log p else Float.neg_infinity)
          else acc := !acc +. Float.log1p (-.p))
        lag.Wan.Lag.links)
    (Wan.Topology.lags topo);
  !acc

let prob topo t = Float.exp (log_prob topo t)

let equal = S.equal

let pp ppf t =
  Format.fprintf ppf "{%s}"
    (String.concat ", "
       (List.map (fun (l, i) -> Printf.sprintf "lag%d.%d" l i) (S.elements t)))
