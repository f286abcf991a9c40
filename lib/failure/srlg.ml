type t = { srlg_name : string; members : (int * int) list; prob : float }

let make ~name ~prob members =
  if List.length members < 2 then invalid_arg "Srlg.make: fewer than two members";
  if prob < 0. || prob >= 1. then invalid_arg "Srlg.make: prob outside [0, 1)";
  let sorted = List.sort_uniq compare members in
  if List.length sorted <> List.length members then invalid_arg "Srlg.make: duplicate members";
  { srlg_name = name; members = sorted; prob }

let validate topo t =
  List.iter
    (fun (lag_id, link_idx) ->
      let lag =
        try Wan.Topology.lag topo lag_id
        with Invalid_argument _ -> invalid_arg "Srlg.validate: bad lag id"
      in
      if link_idx < 0 || link_idx >= Wan.Lag.num_links lag then
        invalid_arg "Srlg.validate: bad link index")
    t.members
