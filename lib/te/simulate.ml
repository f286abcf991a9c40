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
  let lag_cap e = Formulation.C (Failure.Scenario.lag_capacity topo scenario e) in
  let lag_cap =
    match objective with
    | Formulation.Mlu _ ->
      (* Appendix A: MLU keeps capacity rows constant; failures act via
         path availability only *)
      fun e -> Formulation.C (Wan.Lag.capacity (Wan.Topology.lag topo e))
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
    if blocked then Some (Formulation.C 0.) else None
  in
  let demand_f ~src ~dst = Formulation.C (Traffic.Demand.volume demand ~src ~dst) in
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

   One base LP is built for the healthy network: healthy LAG
   capacities, every extension-capacity row present, open paths' rows
   at d_max (= unconstrained) and rows of paths blocked with nothing
   failed (the backups) at 0. A scenario is then a pure rhs delta
   against that base: only the capacity rows of LAGs it touches and the
   extension rows of paths it opens or blocks. The matrix never
   changes, so one Milp.Batch prepare (CSC + symbolic factorization)
   serves every scenario, warm-started from the healthy network's
   optimal basis. *)

type engine = {
  eng_topo : Wan.Topology.t;
  eng_pairs : Netpath.Path_set.pair array;
  eng_objective : Formulation.objective;
  eng_d_max : float;
  eng_n_cols : int;
  eng_index : Formulation.index;
  eng_batch : Milp.Batch.t;
  eng_base : float array;  (* the base (healthy) rhs *)
  eng_lag_pairs : int list array;  (* per LAG, the pairs with a path across it *)
  eng_healthy : result;
  eng_basis : Milp.Simplex.basis option;
}

let is_mlu = function Formulation.Mlu _ -> true | _ -> false

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Scenario overlay as a delta against the healthy base, sorted by row.
   Only failed links can move a row: a LAG with a failed link gets its
   live capacity (MLU keeps no capacity rows), and a pair with a path
   across a fully-down LAG gets its availability recomputed, its
   extension rows 0 when blocked and d_max when open. An entry whose
   value has the base's bits is dropped, so the patch is exactly the
   rows whose rhs differs from the healthy network's: equal right-hand
   sides give equal patches, and the healthy overlay's patch is []. *)
let scenario_patch eng scenario =
  let topo = eng.eng_topo and index = eng.eng_index in
  let mlu = is_mlu eng.eng_objective in
  let patch = ref [] in
  let set row v = if not (same_bits v eng.eng_base.(row)) then patch := (row, v) :: !patch in
  let affected = Array.make (Array.length eng.eng_pairs) false in
  (* [links] is sorted by (lag, link), so each touched LAG comes once *)
  let last = ref (-1) in
  List.iter
    (fun (e, _) ->
      if e <> !last then begin
        last := e;
        let row = index.Formulation.cap_rows.(e) in
        if (not mlu) && row >= 0 then set row (Failure.Scenario.lag_capacity topo scenario e);
        if Failure.Scenario.lag_down topo scenario e then
          List.iter (fun k -> affected.(k) <- true) eng.eng_lag_pairs.(e)
      end)
    (Failure.Scenario.links scenario);
  Array.iteri
    (fun k hit ->
      if hit then begin
        let p = eng.eng_pairs.(k) in
        let avail = availability topo p scenario in
        List.iteri
          (fun j path ->
            let blocked =
              (not avail.(j))
              || (mlu
                 && Failure.Scenario.path_down topo scenario (Netpath.Path.lag_list path))
            in
            set index.Formulation.ext_rows.(k).(j) (if blocked then 0. else eng.eng_d_max))
          (Netpath.Path_set.all_paths p)
      end)
    affected;
  List.sort (fun (a, _) (b, _) -> Int.compare a b) !patch

(* The base build: healthy capacities and every extension row present,
   at d_max for a path available with nothing failed and at 0 for one
   that is not. MLU's utilization rows bake the constant capacities
   into the matrix. *)
let base_build ~objective topo paths demand =
  let d_max = d_max_of demand in
  let lag_cap e = Formulation.C (Wan.Lag.capacity (Wan.Topology.lag topo e)) in
  let demand_f ~src ~dst = Formulation.C (Traffic.Demand.volume demand ~src ~dst) in
  let open_ =
    Array.of_list (List.map (fun p -> availability topo p Failure.Scenario.empty) paths)
  in
  let path_cap ~pair ~path =
    Some (Formulation.C (if open_.(pair).(path) then d_max else 0.))
  in
  Formulation.build ~objective ~topo ~paths ~lag_cap ~demand:demand_f ~path_cap
    ~d_max ()

let finish_result eng = function
  | Milp.Simplex.Optimal { obj = _; values } ->
    let xs = Array.sub values 0 eng.eng_n_cols in
    Some
      {
        performance = Formulation.performance eng.eng_objective eng.eng_index xs;
        flows = xs;
        index = eng.eng_index;
      }
  | Milp.Simplex.Infeasible -> None
  | Milp.Simplex.Unbounded -> failwith "Simulate.route_prepared: unbounded TE LP"
  | Milp.Simplex.Iter_limit ->
    failwith "Simulate.route_prepared: simplex iteration limit"

(* One overlay solve with its independent audit (Milp.Batch.check): the
   verdict lands in the certify counters, which the bench prints and CI
   gates on — a failed audit must never pass silently as a solved
   scenario. *)
let solve_overlay ?warm batch patch =
  let out = Milp.Batch.solve ?warm ~patch batch in
  (match out.Milp.Batch.result with
  | Milp.Simplex.Optimal { obj; values } ->
    ignore (Milp.Batch.check ~patch ~obj ~values batch)
  | _ -> ());
  out

let prepare ?(objective = Formulation.Total_flow) topo paths demand =
  let spec, index = base_build ~objective topo paths demand in
  let model, _vars = Lp_spec.to_model spec in
  let batch = Milp.Batch.prepare model in
  let pairs = Array.of_list paths in
  (* pairs are visited in order, so a pair already listed for a LAG is
     at the head of that LAG's list *)
  let lag_pairs = Array.make (Wan.Topology.num_lags topo) [] in
  Array.iteri
    (fun k p ->
      List.iter
        (fun path ->
          List.iter
            (fun e ->
              match lag_pairs.(e) with
              | k' :: _ when k' = k -> ()
              | l -> lag_pairs.(e) <- k :: l)
            (Netpath.Path.lag_list path))
        (Netpath.Path_set.all_paths p))
    pairs;
  let eng0 =
    {
      eng_topo = topo;
      eng_pairs = pairs;
      eng_objective = objective;
      eng_d_max = d_max_of demand;
      eng_n_cols = Array.length spec.Lp_spec.cols;
      eng_index = index;
      eng_batch = batch;
      eng_base = Milp.Batch.base_rhs batch;
      eng_lag_pairs = lag_pairs;
      eng_healthy =
        { performance = nan; flows = [||]; index } (* placeholder *);
      eng_basis = None;
    }
  in
  (* cold-solve the healthy overlay (the base itself): its optimal basis
     is the shared warm seed for every scenario *)
  let out = solve_overlay batch [] in
  match finish_result eng0 out.Milp.Batch.result with
  | None -> None
  | Some h -> Some { eng0 with eng_healthy = h; eng_basis = out.Milp.Batch.basis }

let engine_healthy eng = eng.eng_healthy

let route_patch eng patch =
  finish_result eng (solve_overlay ?warm:eng.eng_basis eng.eng_batch patch).Milp.Batch.result

let degradation_of_patch eng patch =
  Option.map
    (fun f ->
      Formulation.degradation eng.eng_objective ~healthy:eng.eng_healthy.performance
        ~failed:f.performance)
    (route_patch eng patch)

let route_prepared eng scenario = route_patch eng (scenario_patch eng scenario)

let degradation_prepared eng scenario = degradation_of_patch eng (scenario_patch eng scenario)

(* Patches compare by row and value bits. *)
module Patch_tbl = Hashtbl.Make (struct
  type t = (int * float) list

  let equal = List.equal (fun (r, v) (r', v') -> r = r' && same_bits v v')
  let hash p = List.fold_left (fun h (r, v) -> Hashtbl.hash (h, r, v)) 0 p
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
