type step = {
  report : Analysis.report;
  lag_links_added : (int * int) list;
  new_lags_added : ((int * int) * int) list;
}

type result = {
  steps : step list;
  final : Analysis.report;
  topo : Wan.Topology.t;
  total_links_added : int;
  converged : bool;
}

let avg_link_capacity topo =
  let lags = Wan.Topology.lags topo in
  let total = Array.fold_left (fun acc l -> acc +. Wan.Lag.capacity l) 0. lags in
  let links = float_of_int (max 1 (Wan.Topology.num_links topo)) in
  total /. links

let lag_mean_fail_prob (lag : Wan.Lag.t) =
  let s = Array.fold_left (fun acc (l : Wan.Lag.link) -> acc +. l.Wan.Lag.fail_prob) 0. lag.Wan.Lag.links in
  s /. float_of_int (Wan.Lag.num_links lag)

(* per-pair flow the healthy network achieves at demand [d] *)
let healthy_targets topo paths d =
  match Te.Simulate.healthy topo paths d with
  | None -> None
  | Some h ->
    Some
      (Array.to_list
         (Array.mapi
            (fun k (pc : Te.Formulation.pair_cols) ->
              ((pc.Te.Formulation.src, pc.Te.Formulation.dst),
               Te.Formulation.pair_flow h.Te.Simulate.index k h.Te.Simulate.flows))
            h.Te.Simulate.index.Te.Formulation.pair_arr))

(* Minimum links to add to existing LAGs so the network under [scenario]
   carries [targets] (path form; availability per Eq. 5). *)
let solve_lag_augment topo paths scenario targets ~link_capacity =
  let m = Milp.Model.create ~name:"augment" () in
  let lags = Wan.Topology.lags topo in
  let total_target = List.fold_left (fun acc (_, t) -> acc +. t) 0. targets in
  let max_links = Float.to_int (Float.ceil (total_target /. link_capacity)) + 1 in
  let adds =
    Array.map
      (fun (lag : Wan.Lag.t) ->
        Milp.Model.integer ~lb:0. ~ub:(float_of_int max_links) m
          (Printf.sprintf "add_e%d" lag.Wan.Lag.lag_id))
      lags
  in
  (* Flow variables on every configured path: adding links to a fully
     failed LAG revives the paths through it, so no path is excluded a
     priori (the next analysis iteration re-checks the augmented network
     under the true fail-over discipline). *)
  let flows =
    Array.of_list
      (List.mapi
         (fun k (p : Netpath.Path_set.pair) ->
           let all = Array.of_list (Netpath.Path_set.all_paths p) in
           Array.mapi
             (fun j path ->
               Some (Milp.Model.continuous m (Printf.sprintf "af_k%d_p%d" k j), path))
             all)
         paths)
  in
  (* per-pair targets *)
  List.iteri
    (fun k ((src, dst), target) ->
      ignore src;
      ignore dst;
      let terms =
        Array.to_list flows.(k)
        |> List.filter_map (Option.map (fun (v, _) -> Milp.Model.evar v))
      in
      if terms <> [] then
        Milp.Model.add_cons m
          ~name:(Printf.sprintf "target_k%d" k)
          (Milp.Linexpr.sum terms) Milp.Model.Ge target
      else if target > 1e-9 then
        (* no path survives: capacity on existing LAGs cannot help *)
        Milp.Model.add_cons m ~name:(Printf.sprintf "unreachable_k%d" k)
          Milp.Linexpr.zero Milp.Model.Ge target)
    targets;
  (* capacities: live capacity + added links (added links do not fail in
     the current scenario — they are new) *)
  Array.iter
    (fun (lag : Wan.Lag.t) ->
      let e = lag.Wan.Lag.lag_id in
      let terms = ref [] in
      Array.iter
        (fun row ->
          Array.iter
            (function
              | Some (v, path) ->
                if Netpath.Path.mem_lag path e then terms := (1., v.Milp.Model.vid) :: !terms
              | None -> ())
            row)
        flows;
      if !terms <> [] then begin
        let live = Failure.Scenario.lag_capacity topo scenario e in
        Milp.Model.add_cons_expr m
          ~name:(Printf.sprintf "acap_e%d" e)
          (Milp.Linexpr.of_terms !terms)
          Milp.Model.Le
          (Milp.Linexpr.of_terms ~const:live [ (link_capacity, adds.(e).Milp.Model.vid) ])
      end)
    lags;
  Milp.Model.set_objective m Milp.Model.Minimize
    (Milp.Linexpr.sum (Array.to_list (Array.map Milp.Model.evar adds)));
  let sol = Milp.Solver.solve m in
  match sol.Milp.Solver.status with
  | Milp.Solver.Optimal | Milp.Solver.Feasible ->
    let added = ref [] in
    Array.iteri
      (fun e v ->
        let n = Float.to_int (Float.round (Milp.Solver.value sol v)) in
        if n > 0 then added := (e, n) :: !added)
      adds;
    Some (List.rev !added)
  | _ -> None

let apply_lag_additions topo additions ~link_capacity ~can_fail =
  List.fold_left
    (fun t (e, n) ->
      let lag = Wan.Topology.lag t e in
      let prob = if can_fail then lag_mean_fail_prob lag else 0. in
      let extra =
        List.init n (fun _ -> { Wan.Lag.link_capacity; fail_prob = prob })
      in
      Wan.Topology.with_lag_links t ~lag_id:e
        (Array.to_list lag.Wan.Lag.links @ extra))
    topo additions

(* --- new-LAG augmentation via the edge form (Appendix C) -------------- *)

let solve_new_lag_augment topo paths scenario targets ~candidates ~link_capacity =
  let m = Milp.Model.create ~name:"augment_edges" () in
  let lags = Wan.Topology.lags topo in
  let total_target = List.fold_left (fun acc (_, t) -> acc +. t) 0. targets in
  let max_links = Float.to_int (Float.ceil (total_target /. link_capacity)) + 1 in
  (* candidate LAG variables *)
  let cand_vars =
    List.map
      (fun (a, b) ->
        ((a, b),
         Milp.Model.integer ~lb:0. ~ub:(float_of_int max_links) m
           (Printf.sprintf "newlag_%d_%d" a b)))
      candidates
  in
  (* Appendix C restriction: a demand may use LAGs on its pre-failure
     paths plus candidate LAGs *)
  let allowed =
    List.map
      (fun (p : Netpath.Path_set.pair) ->
        let set = Hashtbl.create 16 in
        List.iter
          (fun path -> List.iter (fun e -> Hashtbl.replace set e ()) (Netpath.Path.lag_list path))
          (Netpath.Path_set.all_paths p);
        set)
      paths
  in
  let n = Wan.Topology.num_nodes topo in
  (* directed flow vars per (pair, arc): existing allowed LAGs + candidates *)
  let fvar = Hashtbl.create 256 in
  let arcs = ref [] in
  Array.iter
    (fun (lag : Wan.Lag.t) -> arcs := `Lag lag :: !arcs)
    lags;
  List.iter (fun ((a, b), v) -> arcs := `Cand (a, b, v) :: !arcs) cand_vars;
  let arcs = List.rev !arcs in
  List.iteri
    (fun k ((_, _), _) ->
      let allowed_k = List.nth allowed k in
      List.iteri
        (fun ai arc ->
          let ok =
            match arc with
            | `Lag (lag : Wan.Lag.t) -> Hashtbl.mem allowed_k lag.Wan.Lag.lag_id
            | `Cand _ -> true
          in
          if ok then begin
            let v0 = Milp.Model.continuous m (Printf.sprintf "nf_k%d_a%d_f" k ai) in
            let v1 = Milp.Model.continuous m (Printf.sprintf "nf_k%d_a%d_r" k ai) in
            Hashtbl.replace fvar (k, ai) (v0, v1)
          end)
        arcs)
    targets;
  let ends = function
    | `Lag (lag : Wan.Lag.t) -> (lag.Wan.Lag.src, lag.Wan.Lag.dst)
    | `Cand (a, b, _) -> (a, b)
  in
  (* conservation + targets *)
  List.iteri
    (fun k ((src, dst), target) ->
      for v = 0 to n - 1 do
        let expr = ref Milp.Linexpr.zero in
        List.iteri
          (fun ai arc ->
            match Hashtbl.find_opt fvar (k, ai) with
            | None -> ()
            | Some (f0, f1) ->
              let s, d = ends arc in
              if d = v then expr := Milp.Linexpr.add_term !expr 1. f0.Milp.Model.vid;
              if s = v then expr := Milp.Linexpr.add_term !expr (-1.) f0.Milp.Model.vid;
              if s = v then expr := Milp.Linexpr.add_term !expr 1. f1.Milp.Model.vid;
              if d = v then expr := Milp.Linexpr.add_term !expr (-1.) f1.Milp.Model.vid)
          arcs;
        let net =
          if v = dst then target else if v = src then -.target else 0.
        in
        Milp.Model.add_cons m
          ~name:(Printf.sprintf "ncons_k%d_v%d" k v)
          !expr Milp.Model.Eq net
      done)
    targets;
  (* capacities *)
  List.iteri
    (fun ai arc ->
      let expr = ref Milp.Linexpr.zero in
      List.iteri
        (fun k _ ->
          match Hashtbl.find_opt fvar (k, ai) with
          | None -> ()
          | Some (f0, f1) ->
            expr := Milp.Linexpr.add_term !expr 1. f0.Milp.Model.vid;
            expr := Milp.Linexpr.add_term !expr 1. f1.Milp.Model.vid)
        targets;
      if not (Milp.Linexpr.is_constant !expr) then
        match arc with
        | `Lag lag ->
          let live = Failure.Scenario.lag_capacity topo scenario lag.Wan.Lag.lag_id in
          Milp.Model.add_cons m ~name:(Printf.sprintf "ncap_a%d" ai) !expr Milp.Model.Le live
        | `Cand (_, _, v) ->
          Milp.Model.add_cons_expr m
            ~name:(Printf.sprintf "ncap_a%d" ai)
            !expr Milp.Model.Le
            (Milp.Linexpr.var ~coeff:link_capacity v.Milp.Model.vid))
    arcs;
  Milp.Model.set_objective m Milp.Model.Minimize
    (Milp.Linexpr.sum (List.map (fun (_, v) -> Milp.Model.evar v) cand_vars));
  let sol = Milp.Solver.solve m in
  match sol.Milp.Solver.status with
  | Milp.Solver.Optimal | Milp.Solver.Feasible ->
    Some
      (List.filter_map
         (fun ((a, b), v) ->
           let k = Float.to_int (Float.round (Milp.Solver.value sol v)) in
           if k > 0 then Some ((a, b), k) else None)
         cand_vars)
  | _ -> None

let topo_mean_fail_prob topo =
  let lags = Wan.Topology.lags topo in
  let s = Array.fold_left (fun acc l -> acc +. lag_mean_fail_prob l) 0. lags in
  s /. float_of_int (max 1 (Array.length lags))

let apply_new_lags topo additions ~link_capacity ~can_fail =
  let prob = if can_fail then topo_mean_fail_prob topo else 0. in
  List.fold_left
    (fun t ((a, b), k) ->
      let links = List.init k (fun _ -> { Wan.Lag.link_capacity; fail_prob = prob }) in
      match Wan.Topology.lag_between t a b with
      | Some lag ->
        Wan.Topology.with_lag_links t ~lag_id:lag.Wan.Lag.lag_id
          (Array.to_list lag.Wan.Lag.links @ links)
      | None -> Wan.Topology.add_lag t ~src:a ~dst:b links)
    topo additions

let links_added s =
  List.fold_left (fun a (_, k) -> a + k) 0 s.lag_links_added
  + List.fold_left (fun a (_, k) -> a + k) 0 s.new_lags_added

(* The §7 loop shared by both families: analyze; stop, converged, once
   the report proves [tolerance] is not exceeded ({!Alert.decide}), and
   unconverged on an unproven report below it; else [grow] the topology
   so the network under the worst scenario carries the healthy per-pair
   flows at the worst demand, and repeat on the grown topology. *)
let iterate ~options ~tolerance ~max_steps ~paths_of ~grow topo envelope =
  let rec loop topo steps n =
    let paths = paths_of topo in
    let report = Analysis.analyze ~options topo paths envelope in
    let finish converged =
      let steps = List.rev steps in
      let total_links_added = List.fold_left (fun a s -> a + links_added s) 0 steps in
      { steps; final = report; topo; total_links_added; converged }
    in
    let decision = Alert.(decide (evidence topo (Deep report)) ~tolerance) in
    if decision <> Alert.Exceeded || n >= max_steps then finish (decision = Alert.Within)
    else
      match healthy_targets topo paths report.Analysis.worst_demand with
      | None -> finish false (* cannot even route on the healthy network *)
      | Some targets -> (
        match grow topo paths report targets with
        | Some (topo', step) when links_added step > 0 -> loop topo' (step :: steps) (n + 1)
        | _ -> finish false (* no augment fixes this scenario (e.g. full disconnection) *))
  in
  loop topo [] 0

let augment_lags ?(options = Analysis.default_options) ?link_capacity
    ?(new_capacity_can_fail = true) ?(tolerance = 1e-6) ?(max_steps = 10) topo paths
    envelope =
  let link_capacity = Option.value link_capacity ~default:(avg_link_capacity topo) in
  iterate ~options ~tolerance ~max_steps ~paths_of:(fun _ -> paths)
    ~grow:(fun topo paths report targets ->
      solve_lag_augment topo paths report.Analysis.scenario targets ~link_capacity
      |> Option.map (fun additions ->
             ( apply_lag_additions topo additions ~link_capacity
                 ~can_fail:new_capacity_can_fail,
               { report; lag_links_added = additions; new_lags_added = [] } )))
    topo envelope

let augment_new_lags ?(options = Analysis.default_options) ?link_capacity
    ?(new_capacity_can_fail = false) ?(tolerance = 1e-6) ?(max_steps = 10) ~candidates
    ~repath topo envelope =
  let link_capacity = Option.value link_capacity ~default:(avg_link_capacity topo) in
  iterate ~options ~tolerance ~max_steps ~paths_of:repath
    ~grow:(fun topo paths report targets ->
      solve_new_lag_augment topo paths report.Analysis.scenario targets ~candidates
        ~link_capacity
      |> Option.map (fun additions ->
             ( apply_new_lags topo additions ~link_capacity ~can_fail:new_capacity_can_fail,
               { report; lag_links_added = []; new_lags_added = additions } )))
    topo envelope
