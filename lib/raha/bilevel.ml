type encoding = Kkt | Strong_duality of { levels : int }

type goal = Max_degradation | Min_failed_performance

type spec = {
  objective : Te.Formulation.objective;
  encoding : encoding;
  goal : goal;
  threshold : float option;
  max_failures : int option;
  connected_enforced : bool;
  naive_failover : bool;
  srlgs : Failure.Srlg.t list;
}

let default_spec =
  {
    objective = Te.Formulation.Total_flow;
    encoding = Strong_duality { levels = 5 };
    goal = Max_degradation;
    threshold = None;
    max_failures = None;
    connected_enforced = false;
    naive_failover = false;
    srlgs = [];
  }

type built = {
  model : Milp.Model.t;
  fm : Failure_model.t;
  healthy : Inner.t;
  healthy_route : Te.Simulate.result option;
  failed : Inner.t;
  demand_exprs : ((int * int) * Milp.Linexpr.t) list;
  degradation : Milp.Linexpr.t;
  healthy_index : Te.Formulation.index;
  failed_index : Te.Formulation.index;
  branch_priority : int -> int;
}

(* Demand variables per the chosen encoding. Returns (expr per pair,
   binary var ids introduced). *)
let make_demands m spec envelope =
  let pairs = Traffic.Envelope.pairs envelope in
  List.map
    (fun (src, dst) ->
      let lo = Traffic.Envelope.lo_volume envelope ~src ~dst in
      let hi = Traffic.Envelope.hi_volume envelope ~src ~dst in
      let expr =
        if Float.abs (hi -. lo) < 1e-12 then Milp.Linexpr.const lo
        else
          match spec.encoding with
          | Kkt ->
            let d =
              Milp.Model.continuous ~lb:lo ~ub:hi m (Printf.sprintf "d_%d_%d" src dst)
            in
            Milp.Model.evar d
          | Strong_duality { levels } ->
            if levels < 2 then invalid_arg "Bilevel: need >= 2 demand levels";
            (* d = sum_q level_q * delta_q with exactly one delta set *)
            let deltas =
              List.init levels (fun q ->
                  Milp.Model.binary m (Printf.sprintf "dq_%d_%d_%d" src dst q))
            in
            Milp.Model.add_cons m
              ~name:(Printf.sprintf "dlvl_%d_%d" src dst)
              (Milp.Linexpr.sum (List.map Milp.Model.evar deltas))
              Milp.Model.Eq 1.;
            let step = (hi -. lo) /. float_of_int (levels - 1) in
            Milp.Linexpr.sum
              (List.mapi
                 (fun q dv ->
                   Milp.Linexpr.var
                     ~coeff:(lo +. (step *. float_of_int q))
                     dv.Milp.Model.vid)
                 deltas)
      in
      ((src, dst), expr))
    pairs

let primaries_only paths =
  List.map (fun (p : Netpath.Path_set.pair) -> { p with Netpath.Path_set.backup = [] }) paths

let build spec topo paths envelope =
  if spec.naive_failover && spec.encoding <> Kkt then
    invalid_arg "Bilevel.build: naive fail-over requires the Kkt encoding";
  let m = Milp.Model.create ~name:"raha" () in
  let fm = Failure_model.build m topo paths in
  (match spec.threshold with
  | Some t -> Failure_model.add_probability_threshold m fm ~threshold:t
  | None -> ());
  (match spec.max_failures with
  | Some k -> Failure_model.add_max_failures m fm ~k
  | None -> ());
  if spec.connected_enforced then Failure_model.add_connected_enforced m fm;
  Failure_model.add_srlgs m fm spec.srlgs;
  let is_mlu = match spec.objective with Te.Formulation.Mlu _ -> true | _ -> false in
  if is_mlu then Failure_model.add_path_up m fm;
  let demand_exprs = make_demands m spec envelope in
  let demand_of ~src ~dst =
    match List.assoc_opt (src, dst) demand_exprs with
    | Some e ->
      if Milp.Linexpr.is_constant e then Te.Lp_spec.Const (Milp.Linexpr.constant e)
      else Te.Lp_spec.Outer e
    | None -> Te.Lp_spec.Const 0.
  in
  let d_max = Float.max 1e-9 (Traffic.Envelope.max_hi envelope) in
  (* --- healthy network: primaries only, full capacities, folded in.
     §6 fast path: with a fixed demand matrix the healthy optimum is a
     constant that we solve independently, shrinking the MILP. --- *)
  let fixed_fast =
    Traffic.Envelope.is_fixed envelope
    && (not spec.naive_failover)
    && (match spec.objective with Te.Formulation.Max_min _ -> false | _ -> true)
  in
  let healthy_spec, healthy_index =
    Te.Formulation.build ~objective:spec.objective ~topo ~paths:(primaries_only paths)
      ~lag_cap:(fun e -> Te.Lp_spec.Const (Wan.Lag.capacity (Wan.Topology.lag topo e)))
      ~demand:demand_of ~d_max ()
  in
  let healthy, healthy_route =
    if fixed_fast then begin
      let d =
        Traffic.Demand.of_list
          (List.map
             (fun (src, dst) ->
               ((src, dst), Traffic.Envelope.lo_volume envelope ~src ~dst))
             (Traffic.Envelope.pairs envelope))
      in
      match Te.Simulate.healthy ~objective:spec.objective topo paths d with
      | Some h ->
        ( {
            Inner.xs = [||];
            duals = [||];
            objective = Milp.Linexpr.const h.Te.Simulate.performance;
          },
          Some h )
      | None ->
        invalid_arg "Bilevel.build: the healthy network cannot route the fixed demand"
    end
    else (Inner.embed_primal m ~prefix:"h" healthy_spec, None)
  in
  (* --- failed network --- *)
  let lag_cap e =
    if is_mlu then Te.Lp_spec.Const (Wan.Lag.capacity (Wan.Topology.lag topo e))
    else Te.Lp_spec.Outer fm.Failure_model.lag_cap.(e)
  in
  (* MLU availability must combine Eq. 5 activation with the path being
     up (Appendix A: capacity rows stay constant, so a down path must be
     blocked through its extension capacity). *)
  let mlu_avail = Hashtbl.create 16 in
  let path_cap ~pair ~path =
    let n_primary =
      (List.nth paths pair : Netpath.Path_set.pair) |> Netpath.Path_set.num_primary
    in
    if not is_mlu then begin
      if path < n_primary then None (* primaries: capacity rows suffice *)
      else
        match fm.Failure_model.avail.(pair).(path) with
        | Some z -> Some (Te.Lp_spec.Outer (Milp.Linexpr.var ~coeff:d_max z.Milp.Model.vid))
        | None -> None
    end
    else begin
      let u_kp = fm.Failure_model.path_down.(pair).(path) in
      if path < n_primary then
        (* cap = d_max * (1 - u_kp) *)
        Some
          (Te.Lp_spec.Outer
             (Milp.Linexpr.of_terms ~const:d_max [ (-.d_max, u_kp.Milp.Model.vid) ]))
      else begin
        match fm.Failure_model.avail.(pair).(path) with
        | None -> None
        | Some z ->
          let a =
            match Hashtbl.find_opt mlu_avail (pair, path) with
            | Some a -> a
            | None ->
              let not_down =
                Milp.Model.binary m (Printf.sprintf "nd_k%d_p%d" pair path)
              in
              Milp.Model.add_cons_expr m
                ~name:(Printf.sprintf "nd_def_k%d_p%d" pair path)
                (Milp.Model.evar not_down) Milp.Model.Eq
                (Milp.Linexpr.of_terms ~const:1. [ (-1., u_kp.Milp.Model.vid) ]);
              let a =
                Milp.Linearize.bool_and m
                  ~name:(Printf.sprintf "av_k%d_p%d" pair path)
                  [ z; not_down ]
              in
              Hashtbl.replace mlu_avail (pair, path) a;
              a
          in
          Some (Te.Lp_spec.Outer (Milp.Linexpr.var ~coeff:d_max a.Milp.Model.vid))
      end
    end
  in
  let failed_spec, failed_index =
    Te.Formulation.build ~objective:spec.objective ~topo ~paths ~lag_cap ~demand:demand_of
      ~path_cap ~d_max ()
  in
  (* naive fail-over: failed flows capped by healthy primary flows (§5.1) *)
  let failed_spec =
    if not spec.naive_failover then failed_spec
    else
      Te.Formulation.add_rows failed_spec
        (Te.Formulation.naive_failover_rows failed_index ~healthy_index
           ~cap:(fun c -> Te.Lp_spec.Outer (Milp.Model.evar healthy.Inner.xs.(c)))
           ~d_max)
  in
  let failed =
    match spec.encoding with
    | Kkt -> Inner.encode_kkt m ~prefix:"f" failed_spec
    | Strong_duality _ -> Inner.encode_strong_duality m ~prefix:"f" failed_spec
  in
  (* --- objective --- *)
  let degradation =
    match (spec.goal, spec.objective) with
    | Max_degradation, (Te.Formulation.Total_flow | Te.Formulation.Max_min _) ->
      Milp.Linexpr.sub healthy.Inner.objective failed.Inner.objective
    | Max_degradation, Te.Formulation.Mlu _ ->
      Milp.Linexpr.sub failed.Inner.objective healthy.Inner.objective
    | Min_failed_performance, (Te.Formulation.Total_flow | Te.Formulation.Max_min _) ->
      Milp.Linexpr.neg failed.Inner.objective
    | Min_failed_performance, Te.Formulation.Mlu _ -> failed.Inner.objective
  in
  Milp.Model.set_objective m Milp.Model.Maximize degradation;
  (* branch link-failure binaries first: they determine the scenario *)
  let link_ids = Hashtbl.create 64 in
  Array.iter
    (Array.iter (fun (v : Milp.Model.var) -> Hashtbl.replace link_ids v.Milp.Model.vid ()))
    fm.Failure_model.link_down;
  let avail_ids = Hashtbl.create 64 in
  Array.iter
    (Array.iter (function
      | Some (v : Milp.Model.var) -> Hashtbl.replace avail_ids v.Milp.Model.vid ()
      | None -> ()))
    fm.Failure_model.avail;
  (* demand-level binaries drive the McCormick relaxation: branch them
     right after the link binaries *)
  let demand_ids = Hashtbl.create 64 in
  List.iter
    (fun (_, e) ->
      Milp.Linexpr.iter
        (fun vid _ ->
          if (Milp.Model.var_of_id m vid).Milp.Model.kind = Milp.Model.Binary then
            Hashtbl.replace demand_ids vid ())
        e)
    demand_exprs;
  let branch_priority id =
    if Hashtbl.mem link_ids id then 100
    else if Hashtbl.mem demand_ids id then 75
    else if Hashtbl.mem avail_ids id then 50
    else 0
  in
  {
    model = m;
    fm;
    healthy;
    healthy_route;
    failed;
    demand_exprs;
    degradation;
    healthy_index;
    failed_index;
    branch_priority;
  }

let demand_of_solution built sol =
  Traffic.Demand.of_list
    (List.map
       (fun (pair, expr) ->
         (pair, Float.max 0. (Milp.Linexpr.eval sol.Milp.Solver.values expr)))
       built.demand_exprs)

let hint built ~scenario ~demand =
  let fm = built.fm in
  let topo = fm.Failure_model.topo in
  let out = ref [] in
  let fix (v : Milp.Model.var) x = out := (v.Milp.Model.vid, x) :: !out in
  Array.iteri
    (fun e row ->
      Array.iteri
        (fun i u ->
          fix u (if Failure.Scenario.is_down scenario ~lag:e ~link:i then 1. else 0.))
        row;
      fix fm.Failure_model.lag_down.(e)
        (if Failure.Scenario.lag_down topo scenario e then 1. else 0.))
    fm.Failure_model.link_down;
  List.iteri
    (fun k (pair : Netpath.Path_set.pair) ->
      List.iteri
        (fun j p ->
          fix fm.Failure_model.path_down.(k).(j)
            (if Failure.Scenario.path_down topo scenario (Netpath.Path.lag_list p)
             then 1.
             else 0.))
        (Netpath.Path_set.all_paths pair);
      (* the fail-over discipline of Eq. 5, as the simulator applies it *)
      Array.iteri
        (fun j active ->
          Option.iter
            (fun z -> fix z (if active then 1. else 0.))
            fm.Failure_model.avail.(k).(j))
        (Te.Simulate.availability topo pair scenario))
    fm.Failure_model.paths;
  (* demand levels: snap to the nearest level (quantized) or fix the
     continuous demand variable (Kkt) *)
  List.iter
    (fun ((src, dst), expr) ->
      let v = Traffic.Demand.volume demand ~src ~dst in
      let terms = Milp.Linexpr.terms expr in
      match terms with
      | [] -> () (* constant demand *)
      | [ (coeff, vid) ] when coeff = 1. && Milp.Linexpr.constant expr = 0. ->
        out := (vid, v) :: !out (* continuous demand variable *)
      | _ ->
        (* quantized: pick the level closest to v *)
        let best = ref None in
        List.iter
          (fun (level, vid) ->
            match !best with
            | None -> best := Some (level, vid)
            | Some (l, _) -> if Float.abs (level -. v) < Float.abs (l -. v) then best := Some (level, vid))
          terms;
        (match !best with
        | Some (_, chosen) ->
          List.iter (fun (_, vid) -> out := ((vid, if vid = chosen then 1. else 0.)) :: !out) terms
        | None -> ()))
    built.demand_exprs;
  !out
