type t = {
  topo : Wan.Topology.t;
  paths : Netpath.Path_set.t;
  link_down : Milp.Model.var array array;
  lag_down : Milp.Model.var array;
  path_down : Milp.Model.var array array;
  avail : Milp.Model.var option array array;
  lag_cap : Milp.Linexpr.t array;
}

let build m topo paths =
  let lags = Wan.Topology.lags topo in
  let link_down =
    Array.map
      (fun (lag : Wan.Lag.t) ->
        Array.mapi
          (fun i _ ->
            Milp.Model.binary m (Printf.sprintf "u_e%d_l%d" lag.Wan.Lag.lag_id i))
          lag.Wan.Lag.links)
      lags
  in
  (* c_e = sum_l c_le (1 - u_le) *)
  let lag_cap =
    Array.map
      (fun (lag : Wan.Lag.t) ->
        let e = lag.Wan.Lag.lag_id in
        Array.to_list lag.Wan.Lag.links
        |> List.mapi (fun i (l : Wan.Lag.link) ->
               let c = l.Wan.Lag.link_capacity in
               Milp.Linexpr.of_terms ~const:c [ (-.c, link_down.(e).(i).Milp.Model.vid) ])
        |> Milp.Linexpr.sum)
      lags
  in
  (* Eq. 3: N_e u_e + aux = sum_l u_le with 0 <= aux <= N_e - 1 *)
  let lag_down =
    Array.map
      (fun (lag : Wan.Lag.t) ->
        let e = lag.Wan.Lag.lag_id in
        let n_e = Wan.Lag.num_links lag in
        let u_e = Milp.Model.binary m (Printf.sprintf "u_e%d" e) in
        let aux =
          Milp.Model.continuous ~lb:0. ~ub:(float_of_int (n_e - 1)) m
            (Printf.sprintf "aux_e%d" e)
        in
        let lhs =
          Milp.Linexpr.add
            (Milp.Linexpr.var ~coeff:(float_of_int n_e) u_e.Milp.Model.vid)
            (Milp.Model.evar aux)
        in
        let rhs =
          Milp.Linexpr.sum (Array.to_list (Array.map Milp.Model.evar link_down.(e)))
        in
        Milp.Model.add_cons_expr m ~name:(Printf.sprintf "lagdown_e%d" e) lhs
          Milp.Model.Eq rhs;
        u_e)
      lags
  in
  (* Eq. 4: N_kp u_kp >= sum_{e in p} u_e *)
  let path_down =
    Array.of_list
      (List.mapi
         (fun k (pair : Netpath.Path_set.pair) ->
           let all = Array.of_list (Netpath.Path_set.all_paths pair) in
           Array.mapi
             (fun j path ->
               let u_kp = Milp.Model.binary m (Printf.sprintf "u_k%d_p%d" k j) in
               let n_kp = Netpath.Path.length path in
               let rhs =
                 Milp.Linexpr.sum
                   (List.map (fun e -> Milp.Model.evar lag_down.(e)) (Netpath.Path.lag_list path))
               in
               Milp.Model.add_cons_expr m
                 ~name:(Printf.sprintf "pathdown_k%d_p%d" k j)
                 (Milp.Linexpr.var ~coeff:(float_of_int n_kp) u_kp.Milp.Model.vid)
                 Milp.Model.Ge rhs;
               u_kp)
             all)
         paths)
  in
  (* Eq. 5 indicator: z_kpj = 1 iff sum_{i<j} u_kpi + n_primary - j - 1 >= 0.
     Primaries (j < n_primary) are unconditionally available. *)
  let avail =
    Array.of_list
      (List.mapi
         (fun k (pair : Netpath.Path_set.pair) ->
           let n_primary = Netpath.Path_set.num_primary pair in
           let n_all = n_primary + Netpath.Path_set.num_backup pair in
           Array.init n_all (fun j ->
               if j < n_primary then None
               else begin
                 let prior =
                   Milp.Linexpr.sum
                     (List.init j (fun i -> Milp.Model.evar path_down.(k).(i)))
                 in
                 let expr =
                   Milp.Linexpr.add prior
                     (Milp.Linexpr.const (float_of_int (n_primary - j - 1)))
                 in
                 let lb = float_of_int (n_primary - j - 1) in
                 let ub = float_of_int (n_primary - 1) in
                 Some
                   (Milp.Linearize.indicator_ge0 m
                      ~name:(Printf.sprintf "z_k%d_p%d" k j)
                      expr ~lb ~ub)
               end))
         paths)
  in
  { topo; paths; link_down; lag_down; path_down; avail; lag_cap }

let add_probability_threshold m t ~threshold =
  if threshold <= 0. || threshold > 1. then
    invalid_arg "Failure_model.add_probability_threshold: threshold outside (0, 1]";
  let log_t = Float.log threshold in
  let expr = ref Milp.Linexpr.zero in
  Array.iter
    (fun (lag : Wan.Lag.t) ->
      let e = lag.Wan.Lag.lag_id in
      Array.iteri
        (fun i (l : Wan.Lag.link) ->
          let p = l.Wan.Lag.fail_prob in
          if p <= 0. then begin
            (* a link that never fails: pin its binary instead of adding a
               -inf coefficient *)
            Milp.Model.add_cons m
              ~name:(Printf.sprintf "nofail_e%d_l%d" e i)
              (Milp.Model.evar t.link_down.(e).(i))
              Milp.Model.Le 0.
          end
          else begin
            let lp = Float.log p and lq = Float.log1p (-.p) in
            (* u * log p + (1 - u) * log (1 - p) = lq + u (lp - lq) *)
            expr :=
              Milp.Linexpr.add !expr
                (Milp.Linexpr.of_terms ~const:lq
                   [ (lp -. lq, t.link_down.(e).(i).Milp.Model.vid) ])
          end)
        lag.Wan.Lag.links)
    (Wan.Topology.lags t.topo);
  Milp.Model.add_cons_expr m ~name:"prob_threshold" !expr Milp.Model.Ge
    (Milp.Linexpr.const log_t)

let add_max_failures m t ~k =
  if k < 0 then invalid_arg "Failure_model.add_max_failures: k < 0";
  let expr =
    Milp.Linexpr.sum
      (Array.to_list t.link_down
      |> List.concat_map (fun row -> Array.to_list (Array.map Milp.Model.evar row)))
  in
  Milp.Model.add_cons m ~name:"max_failures" expr Milp.Model.Le (float_of_int k)

let add_connected_enforced m t =
  Array.iteri
    (fun k row ->
      let n = Array.length row in
      let expr = Milp.Linexpr.sum (Array.to_list (Array.map Milp.Model.evar row)) in
      Milp.Model.add_cons m
        ~name:(Printf.sprintf "ce_k%d" k)
        expr Milp.Model.Le
        (float_of_int (n - 1)))
    t.path_down

let add_srlgs m t groups =
  List.iter
    (fun (g : Failure.Srlg.t) ->
      Failure.Srlg.validate t.topo g;
      match g.Failure.Srlg.members with
      | [] | [ _ ] -> ()
      | (l0, i0) :: rest ->
        let first = Milp.Model.evar t.link_down.(l0).(i0) in
        List.iteri
          (fun idx (l, i) ->
            Milp.Model.add_cons_expr m
              ~name:(Printf.sprintf "srlg_%s_%d" g.Failure.Srlg.srlg_name idx)
              first Milp.Model.Eq
              (Milp.Model.evar t.link_down.(l).(i)))
          rest)
    groups

let add_path_up m t =
  List.iteri
    (fun k (pair : Netpath.Path_set.pair) ->
      List.iteri
        (fun j path ->
          let lags =
            Milp.Linexpr.sum
              (List.map (fun e -> Milp.Model.evar t.lag_down.(e)) (Netpath.Path.lag_list path))
          in
          Milp.Model.add_cons_expr m
            ~name:(Printf.sprintf "pathup_k%d_p%d" k j)
            (Milp.Model.evar t.path_down.(k).(j)) Milp.Model.Le lags)
        (Netpath.Path_set.all_paths pair))
    t.paths

let scenario_of_solution t sol =
  let links = ref [] in
  Array.iteri
    (fun e row ->
      Array.iteri (fun i u -> if Milp.Solver.bool_value sol u then links := (e, i) :: !links) row)
    t.link_down;
  Failure.Scenario.of_links t.topo !links
