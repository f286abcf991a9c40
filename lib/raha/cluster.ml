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
  total_elapsed : float;
  wave_budgets : float list;
}

(* Per-solve time budget for the next wave: the unspent remainder of the
   total limit spread evenly over the solves still to come. Fast early
   blocks therefore hand their unused budget to the hard later ones —
   deterministically, because waves are budgeted in a fixed order and
   every solve of a wave gets the same figure. *)
let wave_budget ~remaining ~solves_left =
  if remaining = Float.infinity then Float.infinity
  else Float.max 0. (remaining /. float_of_int (max 1 solves_left))

let analyze ?pool ?(options = Analysis.default_options) ~clusters topo paths
    envelope =
  let assign = partition topo ~clusters in
  let k = Array.fold_left max 0 assign + 1 in
  let pairs = Traffic.Envelope.pairs envelope in
  let in_block ci cj (s, d) = assign.(s) = ci && assign.(d) = cj in
  (* destination clusters that actually hold pairs, per source wave *)
  let wave_blocks ci =
    List.filter
      (fun cj -> List.exists (in_block ci cj) pairs)
      (List.init k Fun.id)
  in
  let n_solves =
    List.fold_left (fun acc ci -> acc + List.length (wave_blocks ci)) 1
      (List.init k Fun.id)
  in
  let remaining = ref options.Analysis.time_limit in
  let solves_left = ref n_solves in
  (* demands found so far; start from zero (Algorithm 1 line 3) *)
  let current = ref (Traffic.Demand.of_list (List.map (fun p -> (p, 0.)) pairs)) in
  let solves = ref 0 and elapsed = ref 0. in
  let budgets = ref [] in
  let run pool =
    (* One wave per source cluster: its (ci, _) blocks free disjoint
       demand sets and all read the pre-wave matrix, so they solve
       concurrently on the pool (each block solve runs its inner
       machinery sequentially — it is inside a task) and their demands
       are adopted in destination order. The assembled matrix is
       independent of the execution schedule. *)
    for ci = 0 to k - 1 do
      match wave_blocks ci with
      | [] -> ()
      | bs ->
        let budget = wave_budget ~remaining:!remaining ~solves_left:!solves_left in
        budgets := budget :: !budgets;
        let options = { options with Analysis.time_limit = budget } in
        let base = !current in
        let solve_block cj =
          (* free the block's demands, fix the rest at pre-wave values *)
          let env' =
            {
              Traffic.Envelope.lo =
                Traffic.Demand.map
                  (fun ~src ~dst v ->
                    if in_block ci cj (src, dst) then
                      Traffic.Envelope.lo_volume envelope ~src ~dst
                    else v)
                  base;
              hi =
                Traffic.Demand.map
                  (fun ~src ~dst v ->
                    if in_block ci cj (src, dst) then
                      Traffic.Envelope.hi_volume envelope ~src ~dst
                    else v)
                  base;
            }
          in
          Analysis.analyze ~options topo paths env'
        in
        let blocks = Array.of_list bs in
        let results =
          match pool with
          | Some pool -> Parallel.Pool.map_array pool solve_block blocks
          | None -> Array.map solve_block blocks
        in
        let wave_elapsed = ref 0. in
        Array.iteri
          (fun i (r : Analysis.report) ->
            let cj = blocks.(i) in
            incr solves;
            wave_elapsed := !wave_elapsed +. r.Analysis.elapsed;
            if
              r.Analysis.status = Milp.Solver.Optimal
              || r.Analysis.status = Milp.Solver.Feasible
            then
              (* adopt the block's demands (Algorithm 1 line 11) *)
              List.iter
                (fun (s, d) ->
                  if in_block ci cj (s, d) then
                    current :=
                      Traffic.Demand.set !current ~src:s ~dst:d
                        (Traffic.Demand.volume r.Analysis.worst_demand ~src:s
                           ~dst:d))
                pairs)
          results;
        elapsed := !elapsed +. !wave_elapsed;
        solves_left := !solves_left - Array.length blocks;
        if !remaining <> Float.infinity then
          remaining := Float.max 0. (!remaining -. !wave_elapsed)
    done;
    (* final fixed-demand solve for the failure scenario, on the whole
       pool (its branch-and-bound runs the parallel subtree rounds) and
       the whole unspent budget *)
    let budget = wave_budget ~remaining:!remaining ~solves_left:!solves_left in
    budgets := budget :: !budgets;
    let options = { options with Analysis.time_limit = budget } in
    let report =
      Analysis.analyze ?pool ~options topo paths (Traffic.Envelope.fixed !current)
    in
    incr solves;
    elapsed := !elapsed +. report.Analysis.elapsed;
    {
      report;
      demand = !current;
      block_solves = !solves;
      total_elapsed = !elapsed;
      wave_budgets = List.rev !budgets;
    }
  in
  match pool with
  | None when options.Analysis.domains > 1 ->
    Parallel.Pool.with_pool ~domains:options.Analysis.domains (fun pool -> run (Some pool))
  | _ -> run pool
