type t = { nodes : int array; lag_ids : int array }

let make topo node_list =
  let nodes = Array.of_list node_list in
  let n = Array.length nodes in
  if n < 2 then invalid_arg "Path.make: fewer than two nodes";
  let seen = Hashtbl.create n in
  Array.iter
    (fun v ->
      if Hashtbl.mem seen v then invalid_arg "Path.make: repeated node";
      Hashtbl.replace seen v ())
    nodes;
  let lag_ids =
    Array.init (n - 1) (fun i ->
        match Wan.Topology.lag_between topo nodes.(i) nodes.(i + 1) with
        | Some lag -> lag.Wan.Lag.lag_id
        | None ->
          invalid_arg
            (Printf.sprintf "Path.make: no LAG between %d and %d" nodes.(i) nodes.(i + 1)))
  in
  { nodes; lag_ids }

let src t = t.nodes.(0)
let dst t = t.nodes.(Array.length t.nodes - 1)
let length t = Array.length t.lag_ids
let mem_lag t id = Array.exists (Int.equal id) t.lag_ids
let node_list t = Array.to_list t.nodes
let lag_list t = Array.to_list t.lag_ids
let weight w t = Array.fold_left (fun acc id -> acc +. w id) 0. t.lag_ids

let lag_disjoint a b = not (Array.exists (mem_lag b) a.lag_ids)

let equal a b = a.nodes = b.nodes && a.lag_ids = b.lag_ids
let compare a b = compare (a.nodes, a.lag_ids) (b.nodes, b.lag_ids)

let pp topo ppf t =
  Format.pp_print_string ppf
    (String.concat "-" (List.map (Wan.Topology.node_name topo) (node_list t)))
