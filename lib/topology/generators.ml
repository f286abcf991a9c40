let single_link capacity fail_prob = [ { Lag.link_capacity = capacity; fail_prob } ]

let fig1 () =
  let names = [| "A"; "B"; "C"; "D" |] in
  let mk id src dst cap = Lag.make ~id ~src ~dst (single_link cap 0.01) in
  Topology.create ~node_names:names ~name:"fig1" ~num_nodes:4
    [
      mk 0 1 3 8. (* BD *);
      mk 1 2 3 8. (* CD *);
      mk 2 0 3 9. (* AD *);
      mk 3 1 0 5. (* BA *);
      mk 4 2 0 4. (* CA *);
    ]

let uniform_lags ~links_per_lag ~link_capacity ~fail_prob edges =
  List.mapi
    (fun id (src, dst) ->
      Lag.uniform ~id ~src ~dst ~n:links_per_lag ~capacity:link_capacity ~fail_prob)
    edges

let ring ?(links_per_lag = 1) ?(link_capacity = 100.) ?(fail_prob = 0.01) n =
  if n < 3 then invalid_arg "Generators.ring: n < 3";
  let edges = List.init n (fun i -> (i, (i + 1) mod n)) in
  Topology.create ~name:(Printf.sprintf "ring%d" n) ~num_nodes:n
    (uniform_lags ~links_per_lag ~link_capacity ~fail_prob edges)

let grid ?(links_per_lag = 1) ?(link_capacity = 100.) ?(fail_prob = 0.01) rows cols =
  if rows < 1 || cols < 1 || rows * cols < 2 then invalid_arg "Generators.grid";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1)) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c) :: !edges
    done
  done;
  Topology.create
    ~name:(Printf.sprintf "grid%dx%d" rows cols)
    ~num_nodes:(rows * cols)
    (uniform_lags ~links_per_lag ~link_capacity ~fail_prob (List.rev !edges))

let africa_like ?(seed = 7) ?(n = 12) () =
  if n < 6 then invalid_arg "Generators.africa_like: n < 6";
  let rng = Random.State.make [| seed; n |] in
  let n_hubs = max 4 (n / 3) in
  (* Backbone ring over hubs; spurs attach the remaining nodes to 2 hubs
     each (so no node is single-homed); a few cross-links over the ring. *)
  let edges = ref [] in
  for h = 0 to n_hubs - 1 do
    edges := (h, (h + 1) mod n_hubs) :: !edges
  done;
  for v = n_hubs to n - 1 do
    let a = Random.State.int rng n_hubs in
    let b = (a + 1 + Random.State.int rng (n_hubs - 1)) mod n_hubs in
    edges := (v, a) :: (v, b) :: !edges
  done;
  let n_cross = max 1 (n_hubs / 3) in
  for _ = 1 to n_cross do
    let a = Random.State.int rng n_hubs in
    let b = (a + 2 + Random.State.int rng (max 1 (n_hubs - 3))) mod n_hubs in
    if a <> b && List.for_all (fun (x, y) -> not ((x = a && y = b) || (x = b && y = a))) !edges
    then edges := (a, b) :: !edges
  done;
  let mk_lag id (src, dst) =
    let is_backbone = src < n_hubs && dst < n_hubs in
    let n_links = if is_backbone then 2 + Random.State.int rng 3 else 1 + Random.State.int rng 2 in
    (* The synthetic "south" (upper node ids) sits on flaky fiber paths. *)
    let south = src >= (3 * n) / 4 || dst >= (3 * n) / 4 in
    let base_prob = if south then 0.02 else 0.002 in
    let links =
      List.init n_links (fun _ ->
          {
            Lag.link_capacity = (if is_backbone then 100. else 50.);
            fail_prob = base_prob *. (0.5 +. Random.State.float rng 1.5);
          })
    in
    Lag.make ~id ~src ~dst links
  in
  let lags = List.mapi mk_lag (List.rev !edges) in
  Topology.create ~name:(Printf.sprintf "africa%d" n) ~num_nodes:n lags
