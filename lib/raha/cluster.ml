let partition topo ~clusters =
  let n = Wan.Topology.num_nodes topo in
  if clusters < 1 then invalid_arg "Cluster.partition: clusters < 1";
  let k = min clusters n in
  let assign = Array.make n (-1) in
  (* seeds: spread by repeated farthest-first traversal on hop distance *)
  let bfs_dist src =
    let dist = Array.make n max_int in
    let q = Queue.create () in
    dist.(src) <- 0;
    Queue.add src q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      List.iter
        (fun (w, _) ->
          if dist.(w) = max_int then begin
            dist.(w) <- dist.(v) + 1;
            Queue.add w q
          end)
        (Wan.Topology.neighbors topo v)
    done;
    dist
  in
  let seeds = ref [ 0 ] in
  while List.length !seeds < k do
    (* farthest node from all current seeds *)
    let dists = List.map bfs_dist !seeds in
    let best = ref (-1) and bestd = ref (-1) in
    for v = 0 to n - 1 do
      let d =
        List.fold_left (fun acc dist -> min acc (if dist.(v) = max_int then 0 else dist.(v))) max_int dists
      in
      if d > !bestd && not (List.mem v !seeds) then begin
        best := v;
        bestd := d
      end
    done;
    seeds := !best :: !seeds
  done;
  (* multi-source BFS growth: each seed claims nodes in rounds *)
  let q = Queue.create () in
  List.iteri
    (fun c s ->
      assign.(s) <- c;
      Queue.add s q)
    (List.rev !seeds);
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (w, _) ->
        if assign.(w) = -1 then begin
          assign.(w) <- assign.(v);
          Queue.add w q
        end)
      (Wan.Topology.neighbors topo v)
  done;
  (* isolated leftovers (disconnected graphs): cluster 0 *)
  Array.iteri (fun v c -> if c = -1 then assign.(v) <- 0) assign;
  assign

type result = {
  report : Analysis.report;
  demand : Traffic.Demand.t;
  block_solves : int;
  wave_budgets : float list;
}

(* Per-solve time budget for the next wave: the time left before the
   deadline spread evenly over the solves still to come, so fast early
   blocks hand their unused time to the hard later ones. Every solve of
   a wave gets the same figure. *)
let wave_budget ~remaining ~solves_left =
  if remaining = Float.infinity then Float.infinity
  else Float.max 0. (remaining /. float_of_int (max 1 solves_left))

let analyze ?(options = Analysis.default_options) ~clusters topo paths envelope =
  let deadline = Unix.gettimeofday () +. options.Analysis.time_limit in
  let assign = partition topo ~clusters in
  let k = Array.fold_left max 0 assign + 1 in
  let pairs = Traffic.Envelope.pairs envelope in
  let in_block ci cj (s, d) = assign.(s) = ci && assign.(d) = cj in
  (* [demand] with the volumes of block (ci, cj) read from [f] *)
  let with_block ci cj f demand =
    Traffic.Demand.map
      (fun ~src ~dst v -> if in_block ci cj (src, dst) then f ~src ~dst else v)
      demand
  in
  (* one wave per source cluster holding pairs: its destination blocks *)
  let clusters = List.init k Fun.id in
  let waves =
    List.filter_map
      (fun ci ->
        match List.filter (fun cj -> List.exists (in_block ci cj) pairs) clusters with
        | [] -> None
        | bs -> Some (ci, Array.of_list bs))
      clusters
  in
  let block_solves = List.fold_left (fun n (_, bs) -> n + Array.length bs) 1 waves in
  (* the options of the next [solves_left] solves, with their budget *)
  let budgeted ~solves_left =
    let budget = wave_budget ~remaining:(deadline -. Unix.gettimeofday ()) ~solves_left in
    (budget, { options with Analysis.time_limit = budget })
  in
  (* One wave per source cluster: its (ci, _) blocks free disjoint
     demand sets and all read the pre-wave matrix, so they solve
     concurrently on [options.domains] domains (each block solve runs
     its inner machinery sequentially — it is inside a map task) and
     their demands are adopted in destination order. The assembled
     matrix is independent of the execution schedule. *)
  let run_wave (current, solves_left, budgets) (ci, blocks) =
    let budget, options = budgeted ~solves_left in
    (* free the block's demands, fix the rest at pre-wave values *)
    let solve cj =
      let lo = with_block ci cj (Traffic.Envelope.lo_volume envelope) current
      and hi = with_block ci cj (Traffic.Envelope.hi_volume envelope) current in
      (cj, Analysis.analyze ~options topo paths { Traffic.Envelope.lo; hi })
    in
    (* adopt each solved block's demands (Algorithm 1 line 11) *)
    let adopt current (cj, (r : Analysis.report)) =
      match r.Analysis.status with
      | Milp.Solver.Optimal | Milp.Solver.Feasible ->
        with_block ci cj (Traffic.Demand.volume r.Analysis.worst_demand) current
      | _ -> current
    in
    ( Array.fold_left adopt current
        (Parallel.Pool.map ~domains:(max 1 options.Analysis.domains) solve blocks),
      solves_left - Array.length blocks,
      budget :: budgets )
  in
  (* demands start from zero (Algorithm 1 line 3) *)
  let zero = Traffic.Demand.of_list (List.map (fun p -> (p, 0.)) pairs) in
  let demand, solves_left, budgets =
    List.fold_left run_wave (zero, block_solves, []) waves
  in
  (* final fixed-demand solve for the failure scenario, on all the time
     left *)
  let budget, options = budgeted ~solves_left in
  {
    report = Analysis.analyze ~options topo paths (Traffic.Envelope.fixed demand);
    demand;
    block_solves;
    wave_budgets = List.rev (budget :: budgets);
  }
