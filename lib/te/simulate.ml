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
      (* primaries capped by their healthy flow; the r-th backup capped by
         the r-th primary's healthy flow (§5.1) *)
      let extra = ref [] in
      Array.iteri
        (fun k (pc : Formulation.pair_cols) ->
          let hpc = h.index.Formulation.pair_arr.(k) in
          Array.iteri
            (fun j col ->
              let cap_col =
                if j < pc.Formulation.n_primary then Some j
                else begin
                  let r = j - pc.Formulation.n_primary in
                  if r < pc.Formulation.n_primary then Some r else None
                end
              in
              match cap_col with
              | None -> ()
              | Some jh ->
                let healthy_flow = h.flows.(hpc.Formulation.path_cols.(jh)) in
                extra :=
                  {
                    Lp_spec.rname = Printf.sprintf "naive_k%d_p%d" k j;
                    terms = [ (col, 1.) ];
                    rel = Lp_spec.Le;
                    rhs = Lp_spec.Const healthy_flow;
                    slack_bound = d_max;
                  }
                  :: !extra)
            pc.Formulation.path_cols)
        index.Formulation.pair_arr;
      Formulation.add_rows spec !extra
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

   One base LP is built with every extension-capacity row present (rhs
   d_max = unconstrained) and healthy LAG capacities; a scenario is
   then a pure rhs patch: capacity rows take the scenario's live LAG
   capacities, blocked paths' extension rows drop to 0. The matrix
   never changes, so one Milp.Batch prepare (CSC + symbolic
   factorization) serves every scenario, warm-started from the healthy
   network's optimal basis.

   The [rebuild] escape hatch (the batch ablation's off arm) solves the same scenario LP
   by rebuilding formulation, model and prepared structure from
   scratch — the per-scenario-prepare path. Both paths hand the
   simplex bit-identical inputs (structure, bounds, rhs, warm basis),
   so their results are bit-identical by construction; the differential
   test suite holds them to that. *)

type engine = {
  eng_topo : Wan.Topology.t;
  eng_paths : Netpath.Path_set.t;
  eng_demand : Traffic.Demand.t;
  eng_objective : Formulation.objective;
  eng_d_max : float;
  eng_n_cols : int;
  eng_index : Formulation.index;
  eng_batch : Milp.Batch.t;
  eng_healthy : result;
  eng_basis : Milp.Simplex.basis option;
}

let is_mlu = function Formulation.Mlu _ -> true | _ -> false

(* Scenario overlay: every capacity row re-patched with the scenario's
   live capacity (bit-equal to what a from-scratch build would compute,
   even for untouched LAGs), blocked extension rows to 0. Open
   extension rows keep the base d_max. *)
let scenario_patch ~objective topo paths (index : Formulation.index) scenario =
  let mlu = is_mlu objective in
  let patch = ref [] in
  if not mlu then
    Array.iteri
      (fun e row ->
        if row >= 0 then
          patch := (row, Failure.Scenario.lag_capacity topo scenario e) :: !patch)
      index.Formulation.cap_rows;
  List.iteri
    (fun k (p : Netpath.Path_set.pair) ->
      let avail = availability topo p scenario in
      List.iteri
        (fun j path ->
          let blocked =
            (not avail.(j))
            || (mlu
               && Failure.Scenario.path_down topo scenario (Netpath.Path.lag_list path))
          in
          if blocked then
            patch := (index.Formulation.ext_rows.(k).(j), 0.) :: !patch)
        (Netpath.Path_set.all_paths p))
    paths;
  !patch

(* The base build: healthy capacities, every extension row present and
   open at d_max. [lag_cap] values are irrelevant for the non-MLU
   objectives (the scenario patch rewrites every capacity row,
   including the healthy overlay's), but MLU's utilization rows bake
   the constant capacities into the matrix. *)
let base_build ~objective topo paths demand =
  let d_max = d_max_of demand in
  let lag_cap e = Formulation.C (Wan.Lag.capacity (Wan.Topology.lag topo e)) in
  let demand_f ~src ~dst = Formulation.C (Traffic.Demand.volume demand ~src ~dst) in
  let path_cap ~pair:_ ~path:_ = Some (Formulation.C d_max) in
  ( d_max,
    Formulation.build ~objective ~topo ~paths ~lag_cap ~demand:demand_f ~path_cap
      ~d_max () )

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

let prepare ?(objective = Formulation.Total_flow) topo paths demand =
  let d_max, (spec, index) = base_build ~objective topo paths demand in
  let model, _vars = Lp_spec.to_model spec in
  let batch = Milp.Batch.prepare model in
  let eng0 =
    {
      eng_topo = topo;
      eng_paths = paths;
      eng_demand = demand;
      eng_objective = objective;
      eng_d_max = d_max;
      eng_n_cols = Array.length spec.Lp_spec.cols;
      eng_index = index;
      eng_batch = batch;
      eng_healthy =
        { performance = nan; flows = [||]; index } (* placeholder *);
      eng_basis = None;
    }
  in
  (* cold-solve the healthy overlay: its optimal basis is the shared
     warm seed for every scenario *)
  let hpatch =
    scenario_patch ~objective topo paths index Failure.Scenario.empty
  in
  let out = Milp.Batch.solve ~patch:hpatch batch in
  match finish_result eng0 out.Milp.Batch.result with
  | None -> None
  | Some h -> Some { eng0 with eng_healthy = h; eng_basis = out.Milp.Batch.basis }

let engine_healthy eng = eng.eng_healthy

(* Per-scenario-prepare comparator: bake the same scenario rhs into a
   from-scratch build (same row shape as the base: every extension row
   present, blocked ones at 0) and pay model + CSC + factorization per
   scenario. *)
let rebuild_solve eng scenario =
  let topo = eng.eng_topo and objective = eng.eng_objective in
  let mlu = is_mlu objective in
  let lag_cap e =
    if mlu then Formulation.C (Wan.Lag.capacity (Wan.Topology.lag topo e))
    else Formulation.C (Failure.Scenario.lag_capacity topo scenario e)
  in
  let avail =
    Array.of_list (List.map (fun p -> availability topo p scenario) eng.eng_paths)
  in
  let down =
    Array.of_list
      (List.map
         (fun (p : Netpath.Path_set.pair) ->
           Array.of_list
             (List.map
                (fun path ->
                  Failure.Scenario.path_down topo scenario (Netpath.Path.lag_list path))
                (Netpath.Path_set.all_paths p)))
         eng.eng_paths)
  in
  let path_cap ~pair ~path =
    let blocked = (not avail.(pair).(path)) || (mlu && down.(pair).(path)) in
    Some (Formulation.C (if blocked then 0. else eng.eng_d_max))
  in
  let demand_f ~src ~dst =
    Formulation.C (Traffic.Demand.volume eng.eng_demand ~src ~dst)
  in
  let spec, _index =
    Formulation.build ~objective ~topo ~paths:eng.eng_paths ~lag_cap
      ~demand:demand_f ~path_cap ~d_max:eng.eng_d_max ()
  in
  let model, _vars = Lp_spec.to_model spec in
  let prep = Milp.Simplex.prepare model in
  fst (Milp.Simplex.solve_prepared ?warm:eng.eng_basis prep)

let route_prepared ?(rebuild = false) eng scenario =
  if rebuild then finish_result eng (rebuild_solve eng scenario)
  else begin
    let patch =
      scenario_patch ~objective:eng.eng_objective eng.eng_topo eng.eng_paths
        eng.eng_index scenario
    in
    let out = Milp.Batch.solve ?warm:eng.eng_basis ~patch eng.eng_batch in
    (* independent overlay audit (Milp.Batch.check): the verdict lands in
       the certify counters, which the bench prints and CI gates on —
       a failed audit must never pass silently as a solved scenario *)
    (match out.Milp.Batch.result with
    | Milp.Simplex.Optimal { obj; values } ->
      (match Milp.Batch.check ~patch ~obj ~values eng.eng_batch with
      | Ok () | Error _ -> ())
    | _ -> ());
    finish_result eng out.Milp.Batch.result
  end

let degradation_prepared ?rebuild eng scenario =
  match route_prepared ?rebuild eng scenario with
  | None -> None
  | Some f -> (
    let h = eng.eng_healthy.performance in
    match eng.eng_objective with
    | Formulation.Mlu _ -> Some (f.performance -. h)
    | Formulation.Total_flow | Formulation.Max_min _ ->
      Some (h -. f.performance))

let degradation ?(objective = Formulation.Total_flow) ?reaction topo paths demand scenario =
  match healthy ~objective topo paths demand with
  | None -> None
  | Some h -> (
    let failed = route ~objective ?reaction ~healthy:h topo paths demand scenario in
    match failed with
    | None -> None
    | Some f -> (
      match objective with
      | Formulation.Total_flow | Formulation.Max_min _ ->
        Some (h.performance -. f.performance)
      | Formulation.Mlu _ -> Some (f.performance -. h.performance)))
