type result = {
  granted : ((int * int) * float) list;
  total_granted : float;
  total_demand : float;
  scenarios_considered : int;
}

let allocate ~k topo paths demand =
  if k < 0 then invalid_arg "Ffc.allocate: k < 0";
  let scenarios = Failure.Enumerate.lag_failures_up_to_k topo ~k in
  if List.length scenarios > 20_000 then
    invalid_arg "Ffc.allocate: too many scenarios — reduce k or the topology";
  let m = Milp.Model.create ~name:"ffc" () in
  (* granted bandwidth per pair *)
  let grants =
    List.mapi
      (fun i (p : Netpath.Path_set.pair) ->
        let d =
          Traffic.Demand.volume demand ~src:p.Netpath.Path_set.src
            ~dst:p.Netpath.Path_set.dst
        in
        (i, p, Milp.Model.continuous ~ub:d m (Printf.sprintf "b%d" i), d))
      paths
  in
  (* one routing copy per scenario *)
  List.iteri
    (fun si scenario ->
      let avail =
        Array.of_list
          (List.map (fun p -> Simulate.availability topo p scenario) paths)
      in
      let flow_vars =
        List.map
          (fun (i, (p : Netpath.Path_set.pair), b, _) ->
            let all = Array.of_list (Netpath.Path_set.all_paths p) in
            let fs =
              Array.mapi
                (fun j path ->
                  if
                    avail.(i).(j)
                    && not
                         (Failure.Scenario.path_down topo scenario
                            (Netpath.Path.lag_list path))
                  then Some (Milp.Model.continuous m (Printf.sprintf "f_s%d_k%d_p%d" si i j), path)
                  else None)
                all
            in
            (* grant must be routable in this scenario *)
            let terms =
              Array.to_list fs |> List.filter_map (Option.map (fun (v, _) -> Milp.Model.evar v))
            in
            (if terms <> [] then
               Milp.Model.add_cons_expr m
                 ~name:(Printf.sprintf "grant_s%d_k%d" si i)
                 (Milp.Linexpr.sum terms) Milp.Model.Ge (Milp.Model.evar b)
             else
               (* no surviving path: grant forced to zero *)
               Milp.Model.add_cons m
                 ~name:(Printf.sprintf "cut_s%d_k%d" si i)
                 (Milp.Model.evar b) Milp.Model.Le 0.);
            fs)
          grants
      in
      (* scenario capacities *)
      Array.iter
        (fun (lag : Wan.Lag.t) ->
          let e = lag.Wan.Lag.lag_id in
          let terms = ref [] in
          List.iter
            (Array.iter (function
              | Some (v, path) ->
                if Netpath.Path.mem_lag path e then
                  terms := (1., v.Milp.Model.vid) :: !terms
              | None -> ()))
            flow_vars;
          if !terms <> [] then
            Milp.Model.add_cons m
              ~name:(Printf.sprintf "cap_s%d_e%d" si e)
              (Milp.Linexpr.of_terms !terms)
              Milp.Model.Le
              (Failure.Scenario.lag_capacity topo scenario e))
        (Wan.Topology.lags topo))
    scenarios;
  Milp.Model.set_objective m Milp.Model.Maximize
    (Milp.Linexpr.sum (List.map (fun (_, _, b, _) -> Milp.Model.evar b) grants));
  match Milp.Simplex.solve m with
  | Milp.Simplex.Optimal { obj; values } ->
    let granted =
      List.map
        (fun (_, (p : Netpath.Path_set.pair), b, _) ->
          ((p.Netpath.Path_set.src, p.Netpath.Path_set.dst), values.(b.Milp.Model.vid)))
        grants
    in
    Some
      {
        granted;
        total_granted = obj;
        total_demand = Traffic.Demand.total demand;
        scenarios_considered = List.length scenarios;
      }
  | Milp.Simplex.Infeasible | Milp.Simplex.Unbounded | Milp.Simplex.Iter_limit -> None

let grant_to_demand r =
  Traffic.Demand.of_list (List.map (fun (p, v) -> (p, Float.max 0. v)) r.granted)

let verify ~k topo paths r =
  let grant = grant_to_demand r in
  let routable scenario =
    match Simulate.route topo paths grant scenario with
    | Some res -> res.Simulate.performance +. 1e-6 >= r.total_granted
    | None -> false
  in
  List.find_opt
    (fun s -> not (routable s))
    (Failure.Enumerate.lag_failures_up_to_k topo ~k)
