type reaction = Optimal_failover | Naive_failover

type result = {
  performance : float;
  flows : float array;
  index : Formulation.index;
}

let availability topo (pair : Netpath.Path_set.pair) scenario =
  let all = Array.of_list (Netpath.Path_set.all_paths pair) in
  let n_primary = Netpath.Path_set.num_primary pair in
  let down =
    Array.map
      (fun p -> Failure.Scenario.path_down topo scenario (Netpath.Path.lag_list p))
      all
  in
  let failed_before = Array.make (Array.length all) 0 in
  for j = 1 to Array.length all - 1 do
    failed_before.(j) <- failed_before.(j - 1) + (if down.(j - 1) then 1 else 0)
  done;
  Array.mapi (fun j _ -> failed_before.(j) + n_primary - j - 1 >= 0) all

let d_max_of demand =
  List.fold_left (fun acc (_, v) -> Float.max acc v) 1. (Traffic.Demand.entries demand)

let route ?(objective = Formulation.Total_flow) ?(reaction = Optimal_failover) ?healthy
    topo paths demand scenario =
  let d_max = d_max_of demand in
  let lag_cap e = Lp_spec.Const (Failure.Scenario.lag_capacity topo scenario e) in
  let lag_cap =
    match objective with
    | Formulation.Mlu _ ->
      (* Appendix A: MLU keeps capacity rows constant; failures act via
         path availability only *)
      fun e -> Lp_spec.Const (Wan.Lag.capacity (Wan.Topology.lag topo e))
    | Formulation.Total_flow | Formulation.Max_min _ -> lag_cap
  in
  let avail =
    Array.of_list (List.map (fun p -> availability topo p scenario) paths)
  in
  (* In MLU mode the capacity rows stay constant (Appendix A), so a down
     path must additionally be blocked through its extension capacity;
     for the other objectives a down LAG's zero capacity already blocks
     it. *)
  let is_mlu = match objective with Formulation.Mlu _ -> true | _ -> false in
  let down =
    Array.of_list
      (List.map
         (fun (p : Netpath.Path_set.pair) ->
           Array.of_list
             (List.map
                (fun path ->
                  Failure.Scenario.path_down topo scenario (Netpath.Path.lag_list path))
                (Netpath.Path_set.all_paths p)))
         paths)
  in
  let path_cap ~pair ~path =
    let blocked =
      (not avail.(pair).(path)) || (is_mlu && down.(pair).(path))
    in
    if blocked then Some (Lp_spec.Const 0.) else None
  in
  let demand_f ~src ~dst = Lp_spec.Const (Traffic.Demand.volume demand ~src ~dst) in
  let spec, index =
    Formulation.build ~objective ~topo ~paths ~lag_cap ~demand:demand_f ~path_cap ~d_max ()
  in
  let spec =
    match (reaction, healthy) with
    | Optimal_failover, _ -> spec
    | Naive_failover, None -> invalid_arg "Simulate.route: naive fail-over needs healthy flows"
    | Naive_failover, Some h ->
      Formulation.add_rows spec
        (Formulation.naive_failover_rows index ~healthy_index:h.index
           ~cap:(fun c -> Lp_spec.Const h.flows.(c))
           ~d_max)
  in
  match Lp_spec.solve spec with
  | `Optimal (_, xs) ->
    Some { performance = Formulation.performance objective index xs; flows = xs; index }
  | `Infeasible -> None
  | `Unbounded -> failwith "Simulate.route: unbounded TE LP"

let healthy ?objective topo paths demand =
  route ?objective topo paths demand Failure.Scenario.empty

(* ------------------------------------------------------------------ *)
(* Batched scenario engine (DESIGN.md §12)

   One base LP is built for the healthy network: healthy LAG capacities
   and no extension-capacity rows. In a simulation Eq. 5's path caps are
   constants, so each is an upper bound on its path's column: d_max (=
   unconstrained) for a path available with nothing failed, 0 for one
   that is not (the backups). A scenario is then a delta against that
   base: the rhs of the capacity rows of LAGs it touches and the upper
   bounds of the paths it opens or blocks. The matrix never changes, so
   one Milp.Batch prepare (CSC + symbolic factorization) serves every
   scenario, warm-started from the healthy network's optimal basis. A
   path a scenario opens is a column the healthy basis holds nonbasic at
   0 with a reduced cost that may now want it up: the warm start flips
   it to its new upper bound (Simplex.solve_prepared) and the dual
   simplex carries on. The solve leaves out the capacity rows no
   scenario can make bind (redundant_rows); patches keep the whole
   LP's row numbering, and every answer is audited against the whole
   LP. *)

(* A scenario's overlay: rhs entries by row, upper bounds by column,
   each sorted *)
type patch = { rows : (int * float) list; ubs : (int * float) list }

type engine = {
  eng_topo : Wan.Topology.t;
  eng_pairs : Netpath.Path_set.pair array;
  eng_objective : Formulation.objective;
  eng_d_max : float;
  eng_n_cols : int;
  eng_index : Formulation.index;
  eng_batch : Milp.Batch.t;
  eng_base : float array;  (* the base (healthy) rhs *)
  eng_base_ub : float array;  (* the base upper bound of every spec column *)
  eng_lag_pairs : int list array;  (* per LAG, the pairs with a path across it *)
  eng_rowless : bool array;  (* per LAG, no solved row carries its capacity *)
  eng_healthy : result;
  eng_basis : Milp.Simplex.basis option;
}

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let by_index l = List.sort (fun (a, _) (b, _) -> Int.compare a b) l

(* Whether the path with LAGs [ids] crosses one of [lags], from hop [i]
   on: plain recursion with [Int.equal], no closure and no polymorphic
   compare *)
let rec mem_lag e = function [] -> false | e' :: tl -> Int.equal e e' || mem_lag e tl

let rec crosses_from lags (ids : int array) i =
  i < Array.length ids && (mem_lag ids.(i) lags || crosses_from lags ids (i + 1))

let crosses lags (path : Netpath.Path.t) =
  match lags with [] -> false | _ -> crosses_from lags path.Netpath.Path.lag_ids 0

(* Scenario overlay as a delta against the healthy base. Only failed
   links can move an entry: a LAG with a failed link gets its live
   capacity (when it has a capacity row: MLU keeps none), and a pair
   with a path across a fully-down LAG gets its availability
   recomputed, its path columns' upper bounds 0 when blocked and d_max
   when open. A path is blocked when it is unavailable, or when it
   crosses a down LAG whose capacity no solved row carries (every LAG
   under MLU, the dropped rows' LAGs otherwise): there the bound says
   what the row's rhs 0 would. An entry whose value has the base's bits
   is dropped, so the patch is exactly the rows and columns that differ
   from the healthy network's: equal overlays give equal patches, and
   the healthy overlay's patch is empty. Rows are numbered as in the
   whole LP, dropped rows included.

   Availability follows [availability]'s rule, read from the
   scenario's fully-down LAGs, which are collected once: a path is down
   when it crosses one of them (a LAG has at least one link, so only a
   LAG with a failed link can be down). *)
let scenario_patch eng scenario =
  let topo = eng.eng_topo and index = eng.eng_index in
  let rows = ref [] and ubs = ref [] in
  let set row v = if not (same_bits v eng.eng_base.(row)) then rows := (row, v) :: !rows in
  let set_ub col v = if not (same_bits v eng.eng_base_ub.(col)) then ubs := (col, v) :: !ubs in
  let affected = Array.make (Array.length eng.eng_pairs) false in
  (* the fully-down LAGs, and those of them whose paths the bounds must
     close *)
  let down = ref [] and closing = ref [] in
  (* [links] is sorted by (lag, link), so each touched LAG comes once *)
  let last = ref (-1) in
  List.iter
    (fun (e, _) ->
      if e <> !last then begin
        last := e;
        let row = index.Formulation.cap_rows.(e) in
        if row >= 0 then set row (Failure.Scenario.lag_capacity topo scenario e);
        if Failure.Scenario.lag_down topo scenario e then begin
          down := e :: !down;
          if eng.eng_rowless.(e) then closing := e :: !closing;
          List.iter (fun k -> affected.(k) <- true) eng.eng_lag_pairs.(e)
        end
      end)
    (Failure.Scenario.links scenario);
  let down = !down and closing = !closing in
  Array.iteri
    (fun k hit ->
      if hit then begin
        let p = eng.eng_pairs.(k) in
        let cols = index.Formulation.pair_arr.(k).Formulation.path_cols in
        let n_primary = Netpath.Path_set.num_primary p in
        (* the down paths before path [j] *)
        let failed = ref 0 in
        List.iteri
          (fun j path ->
            let available = !failed + n_primary - j - 1 >= 0 in
            let is_down = crosses down path in
            if is_down then incr failed;
            (* a closing LAG is down, so only a down path can cross one *)
            let blocked = (not available) || (is_down && crosses closing path) in
            set_ub cols.(j) (if blocked then 0. else eng.eng_d_max))
          (Netpath.Path_set.all_paths p)
      end)
    affected;
  { rows = by_index !rows; ubs = by_index !ubs }

(* The base build: healthy capacities and no extension rows; a path
   column's upper bound is d_max when the path is available with nothing
   failed and 0 when it is not, and every other column is unbounded
   above. MLU's utilization rows bake the constant capacities into the
   matrix. Returns the spec, its index and the column upper bounds. *)
let base_build ~objective topo paths demand =
  let d_max = d_max_of demand in
  let lag_cap e = Lp_spec.Const (Wan.Lag.capacity (Wan.Topology.lag topo e)) in
  let demand_f ~src ~dst = Lp_spec.Const (Traffic.Demand.volume demand ~src ~dst) in
  let spec, index =
    Formulation.build ~objective ~topo ~paths ~lag_cap ~demand:demand_f ~d_max ()
  in
  let ub = Array.make (Array.length spec.Lp_spec.cols) infinity in
  List.iteri
    (fun k p ->
      let avail = availability topo p Failure.Scenario.empty in
      Array.iteri
        (fun j col -> ub.(col) <- (if avail.(j) then d_max else 0.))
        index.Formulation.pair_arr.(k).Formulation.path_cols)
    paths;
  (spec, index, ub)

(* The routing of an overlay answer; every overlay solve audits its
   optimal answer (Milp.Batch.solve), and the verdict lands in the
   certify counters, which the bench prints and CI gates on: a failed
   audit must never pass silently as a solved scenario. *)
let finish_result objective ~n_cols index = function
  | Milp.Simplex.Optimal { obj = _; values } ->
    let xs = Array.sub values 0 n_cols in
    Some { performance = Formulation.performance objective index xs; flows = xs; index }
  | Milp.Simplex.Infeasible -> None
  | Milp.Simplex.Unbounded -> failwith "Simulate.route_prepared: unbounded TE LP"
  | Milp.Simplex.Iter_limit ->
    failwith "Simulate.route_prepared: simplex iteration limit"

(* Per LAG, the pairs with a path (primary or backup) across it. Pairs
   are visited in order, so a pair already listed for a LAG is at the
   head of that LAG's list. *)
let lag_pairs topo pairs =
  let lp = Array.make (Wan.Topology.num_lags topo) [] in
  Array.iteri
    (fun k p ->
      List.iter
        (fun path ->
          List.iter
            (fun e -> match lp.(e) with k' :: _ when k' = k -> () | l -> lp.(e) <- k :: l)
            (Netpath.Path.lag_list path))
        (Netpath.Path_set.all_paths p))
    pairs;
  lp

(* The capacity rows no scenario can make bind (DESIGN.md §12), as a
   per-row flag. Each pair routes at most its demand (Total_flow's
   demand row is <=; under Max_min the flow is the sum of bins of
   widths summing to 1), so LAG e's row carries at most D_e, the summed
   demand of the pairs with a path across e. While e is up its rhs is
   at least its smallest link, so D_e <= that floor leaves the row
   slack; when e is fully down every path across it is closed by its
   column bound, which is the row's rhs 0 in another form. MLU has no
   capacity-row index (its utilization rows bind through U), so it
   drops nothing. *)
let redundant_rows topo pairs demand lag_pairs index n_rows =
  let drop = Array.make n_rows false in
  Array.iteri
    (fun e row ->
      if row >= 0 then begin
        let d_e =
          List.fold_left
            (fun acc k ->
              let p = pairs.(k) in
              acc
              +. Traffic.Demand.volume demand ~src:p.Netpath.Path_set.src
                   ~dst:p.Netpath.Path_set.dst)
            0. lag_pairs.(e)
        in
        let floor_e =
          Array.fold_left
            (fun acc (l : Wan.Lag.link) -> Float.min acc l.Wan.Lag.link_capacity)
            infinity (Wan.Topology.lag topo e).Wan.Lag.links
        in
        if d_e <= floor_e then drop.(row) <- true
      end)
    index.Formulation.cap_rows;
  drop

let prepare ?(objective = Formulation.Total_flow) topo paths demand =
  let spec, index, ub = base_build ~objective topo paths demand in
  let model, _vars = Lp_spec.to_model ~ub spec in
  let pairs = Array.of_list paths in
  let lag_pairs = lag_pairs topo pairs in
  let drop = redundant_rows topo pairs demand lag_pairs index (Array.length spec.Lp_spec.rows) in
  let batch = Milp.Batch.prepare ~keep:(fun i -> not drop.(i)) model in
  let n_cols = Array.length spec.Lp_spec.cols in
  (* cold-solve the healthy overlay (the base itself): its optimal basis
     is the shared warm seed for every scenario *)
  let out = Milp.Batch.solve batch in
  Option.map
    (fun healthy ->
      {
        eng_topo = topo;
        eng_pairs = pairs;
        eng_objective = objective;
        eng_d_max = d_max_of demand;
        eng_n_cols = n_cols;
        eng_index = index;
        eng_batch = batch;
        eng_base = Milp.Batch.base_rhs batch;
        eng_base_ub = ub;
        eng_lag_pairs = lag_pairs;
        eng_rowless = Array.map (fun row -> row < 0 || drop.(row)) index.Formulation.cap_rows;
        eng_healthy = healthy;
        eng_basis = out.Milp.Batch.basis;
      })
    (finish_result objective ~n_cols index out.Milp.Batch.result)

let engine_rows eng = Milp.Batch.rows eng.eng_batch

let engine_healthy eng = eng.eng_healthy

let route_patch eng patch =
  finish_result eng.eng_objective ~n_cols:eng.eng_n_cols eng.eng_index
    (Milp.Batch.solve ?warm:eng.eng_basis ~patch:patch.rows ~ub:patch.ubs eng.eng_batch)
      .Milp.Batch.result

let degradation_of_patch eng patch =
  Option.map
    (fun f ->
      Formulation.degradation eng.eng_objective ~healthy:eng.eng_healthy.performance
        ~failed:f.performance)
    (route_patch eng patch)

let route_prepared eng scenario = route_patch eng (scenario_patch eng scenario)

let degradation_prepared eng scenario = degradation_of_patch eng (scenario_patch eng scenario)

(* Patches compare by index and value bits. *)
module Patch_tbl = Hashtbl.Make (struct
  type t = patch

  let entries_equal = List.equal (fun (i, v) (i', v') -> i = i' && same_bits v v')
  let equal p q = entries_equal p.rows q.rows && entries_equal p.ubs q.ubs
  let hash_entries h l = List.fold_left (fun h (i, v) -> Hashtbl.hash (h, i, v)) h l
  let hash p = hash_entries (hash_entries 0 p.rows) p.ubs
end)

let degradations_prepared eng scenarios =
  (* group equal patches in first-occurrence order, then solve each
     distinct one once *)
  let slot = Patch_tbl.create 64 in
  let distinct = ref [] in
  let owner =
    Array.map
      (fun s ->
        let patch = scenario_patch eng s in
        match Patch_tbl.find_opt slot patch with
        | Some i -> i
        | None ->
          let i = Patch_tbl.length slot in
          Patch_tbl.add slot patch i;
          distinct := patch :: !distinct;
          i)
      scenarios
  in
  let distinct = Array.of_list (List.rev !distinct) in
  let results = Array.map (degradation_of_patch eng) distinct in
  Array.map (fun i -> results.(i)) owner

let degradation ?(objective = Formulation.Total_flow) ?reaction topo paths demand scenario =
  match healthy ~objective topo paths demand with
  | None -> None
  | Some h ->
    Option.map
      (fun f ->
        Formulation.degradation objective ~healthy:h.performance ~failed:f.performance)
      (route ~objective ?reaction ~healthy:h topo paths demand scenario)
