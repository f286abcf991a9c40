type scheme =
  | Hop_count
  | Weighted of (int -> float)
  | Usage_penalized
  | Lag_disjoint

type pair = { src : int; dst : int; primary : Path.t list; backup : Path.t list }

let all_paths p = p.primary @ p.backup
let num_primary p = List.length p.primary
let num_backup p = List.length p.backup

type t = pair list

let select_paths topo ~scheme ~src ~dst ~want =
  match scheme with
  | Hop_count -> Shortest.yen topo ~src ~dst want
  | Weighted w -> Shortest.yen ~weight:w topo ~src ~dst want
  | Usage_penalized ->
    (* Re-run shortest path [want] times; every selected path increases
       the weight of its LAGs so later paths prefer fresh LAGs, while
       still allowing overlap when no alternative exists. *)
    let usage = Hashtbl.create 16 in
    let weight id = 1. +. (2. *. float_of_int (try Hashtbl.find usage id with Not_found -> 0)) in
    let rec pick acc k =
      if k = 0 then List.rev acc
      else
        match Shortest.dijkstra ~weight topo ~src ~dst with
        | None -> List.rev acc
        | Some p ->
          if List.exists (Path.equal p) acc then List.rev acc
          else begin
            List.iter
              (fun id ->
                Hashtbl.replace usage id (1 + (try Hashtbl.find usage id with Not_found -> 0)))
              (Path.lag_list p);
            pick (p :: acc) (k - 1)
          end
    in
    pick [] want
  | Lag_disjoint ->
    (* Yen candidates filtered greedily for LAG-disjointness. *)
    let candidates = Shortest.yen topo ~src ~dst (4 * want) in
    let rec greedy acc = function
      | [] -> List.rev acc
      | p :: rest ->
        if List.length acc >= want then List.rev acc
        else if List.for_all (Path.lag_disjoint p) acc then greedy (p :: acc) rest
        else greedy acc rest
    in
    greedy [] candidates

let compute ?(scheme = Hop_count) ~n_primary ~n_backup topo pairs =
  if n_primary < 1 then invalid_arg "Path_set.compute: n_primary < 1";
  if n_backup < 0 then invalid_arg "Path_set.compute: n_backup < 0";
  List.map
    (fun (src, dst) ->
      let want = n_primary + n_backup in
      let paths = select_paths topo ~scheme ~src ~dst ~want in
      if paths = [] then
        invalid_arg
          (Printf.sprintf "Path_set.compute: no path between %s and %s"
             (Wan.Topology.node_name topo src)
             (Wan.Topology.node_name topo dst));
      let rec split n = function
        | [] -> ([], [])
        | l when n = 0 -> ([], l)
        | x :: tl ->
          let a, b = split (n - 1) tl in
          (x :: a, b)
      in
      let primary, backup = split n_primary paths in
      { src; dst; primary; backup })
    pairs

let find t ~src ~dst =
  match List.find_opt (fun p -> p.src = src && p.dst = dst) t with
  | Some p -> p
  | None -> raise Not_found

let total_paths t = List.fold_left (fun acc p -> acc + num_primary p + num_backup p) 0 t
