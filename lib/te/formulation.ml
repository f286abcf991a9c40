type objective =
  | Total_flow
  | Mlu of { u_max : float }
  | Max_min of { bins : int; ratio : float }

type pair_cols = {
  src : int;
  dst : int;
  n_primary : int;
  paths : Netpath.Path.t array;
  path_cols : int array;
}

type index = {
  pair_arr : pair_cols array;
  u_col : int option;
  cap_rows : int array;
}

let scale_value k = function
  | Lp_spec.Const c -> Lp_spec.Const (k *. c)
  | Lp_spec.Outer e -> Lp_spec.Outer (Milp.Linexpr.scale k e)

let build ~objective ~topo ~paths ~lag_cap ~demand ?path_cap ~d_max () =
  let cols = ref [] and n_cols = ref 0 in
  let add_col cname obj ub_hint =
    let i = !n_cols in
    incr n_cols;
    cols := { Lp_spec.cname; obj; ub_hint } :: !cols;
    i
  in
  let rows = ref [] and n_rows = ref 0 in
  (* row index = order of add_row calls (the list is reversed below),
     which is also the model constraint / sparse rhs index Lp_spec
     preserves — what the batch overlay path patches by *)
  let add_row rname terms rel rhs slack_bound =
    incr n_rows;
    rows := { Lp_spec.rname; terms; rel; rhs; slack_bound } :: !rows
  in
  (* flow columns, one per (pair, path) *)
  let pair_arr =
    Array.of_list
      (List.mapi
         (fun k (p : Netpath.Path_set.pair) ->
           let all = Netpath.Path_set.all_paths p in
           let path_cols =
             Array.of_list
               (List.mapi
                  (fun j _ ->
                    add_col (Printf.sprintf "f_k%d_p%d" k j)
                      (match objective with Total_flow -> 1. | Mlu _ | Max_min _ -> 0.)
                      d_max)
                  all)
           in
           {
             src = p.Netpath.Path_set.src;
             dst = p.Netpath.Path_set.dst;
             n_primary = Netpath.Path_set.num_primary p;
             paths = Array.of_list all;
             path_cols;
           })
         paths)
  in
  let n_pairs = Array.length pair_arr in
  (* objective-specific columns *)
  let u_col, bin_cols =
    match objective with
    | Total_flow -> (None, [||])
    | Mlu { u_max } -> (Some (add_col "U" 1. u_max), [||])
    | Max_min { bins; ratio } ->
      if bins < 1 then invalid_arg "Formulation: bins < 1";
      if ratio < 1. then invalid_arg "Formulation: ratio < 1";
      let eps = 1. /. (2. *. float_of_int (max 1 n_pairs)) in
      let cols =
        Array.init n_pairs (fun k ->
            Array.init bins (fun i ->
                add_col (Printf.sprintf "t_k%d_b%d" k i)
                  (Float.pow eps (float_of_int i))
                  d_max))
      in
      (None, cols)
  in
  (* demand rows *)
  Array.iteri
    (fun k pc ->
      let terms = Array.to_list (Array.map (fun c -> (c, 1.)) pc.path_cols) in
      let dval = demand ~src:pc.src ~dst:pc.dst in
      match objective with
      | Mlu _ ->
        (* MLU routes the full demand (Appendix A) *)
        add_row (Printf.sprintf "dem_k%d" k) terms Lp_spec.Eq dval 0.
      | Total_flow ->
        add_row (Printf.sprintf "dem_k%d" k) terms Lp_spec.Le dval d_max
      | Max_min { bins; ratio } ->
        (* flow equals the sum of bin allocations; bins partition [0, d] *)
        let t_terms = Array.to_list (Array.map (fun c -> (c, -1.)) bin_cols.(k)) in
        add_row (Printf.sprintf "bin_link_k%d" k) (terms @ t_terms) Lp_spec.Eq
          (Lp_spec.Const 0.) 0.;
        let widths =
          if ratio = 1. then Array.make bins (1. /. float_of_int bins)
          else begin
            let q = ratio in
            let denom = (Float.pow q (float_of_int bins)) -. 1. in
            Array.init bins (fun i -> (q -. 1.) *. Float.pow q (float_of_int i) /. denom)
          end
        in
        Array.iteri
          (fun i tcol ->
            add_row
              (Printf.sprintf "bin_k%d_b%d" k i)
              [ (tcol, 1.) ]
              Lp_spec.Le
              (scale_value widths.(i) dval)
              d_max)
          bin_cols.(k))
    pair_arr;
  (* LAG capacity / utilization rows *)
  let num_lags = Wan.Topology.num_lags topo in
  (* only Total_flow/Max_min capacity rows carry a scenario-dependent
     rhs (MLU keeps its utilization rows constant, Appendix A), so only
     those get a row index for the batch overlay path *)
  let cap_rows = Array.make num_lags (-1) in
  (* one pass over the paths: each path's column is prepended to the
     terms of every LAG it crosses (once, even if the path listed a LAG
     twice), so each LAG's terms come in reverse (pair, path) order *)
  let lag_terms = Array.make num_lags [] in
  Array.iter
    (fun pc ->
      Array.iteri
        (fun j (path : Netpath.Path.t) ->
          let col = pc.path_cols.(j) in
          Array.iter
            (fun e ->
              match lag_terms.(e) with
              | (c, _) :: _ when c = col -> ()
              | l -> lag_terms.(e) <- (col, 1.) :: l)
            path.Netpath.Path.lag_ids)
        pc.paths)
    pair_arr;
  for e = 0 to num_lags - 1 do
    let terms = lag_terms.(e) in
    if terms <> [] then
      match objective with
      | Total_flow | Max_min _ ->
        let cap = lag_cap e in
        let bound =
          match cap with
          | Lp_spec.Const c -> c
          | Lp_spec.Outer _ -> Wan.Lag.capacity (Wan.Topology.lag topo e)
        in
        cap_rows.(e) <- !n_rows;
        add_row (Printf.sprintf "cap_e%d" e) terms Lp_spec.Le cap bound
      | Mlu { u_max } -> (
        match lag_cap e with
        | Lp_spec.Const cap ->
          let u = Option.get u_col in
          add_row (Printf.sprintf "util_e%d" e)
            ((u, -.cap) :: terms)
            Lp_spec.Le (Lp_spec.Const 0.) (cap *. u_max)
        | Lp_spec.Outer _ -> invalid_arg "Formulation: MLU requires constant LAG capacities")
  done;
  (* MLU variable cap (keeps duals bounded) *)
  (match (objective, u_col) with
  | Mlu { u_max }, Some u -> add_row "u_cap" [ (u, 1.) ] Lp_spec.Le (Lp_spec.Const u_max) u_max
  | _ -> ());
  (* path extension capacity rows (Eq. 5) *)
  (match path_cap with
  | None -> ()
  | Some f ->
    Array.iteri
      (fun k pc ->
        Array.iteri
          (fun j col ->
            match f ~pair:k ~path:j with
            | None -> ()
            | Some v ->
              add_row
                (Printf.sprintf "ext_k%d_p%d" k j)
                [ (col, 1.) ]
                Lp_spec.Le v d_max)
          pc.path_cols)
      pair_arr);
  let sense, dual_bound =
    match objective with
    | Total_flow -> (Lp_spec.Max, 1.)
    | Max_min _ -> (Lp_spec.Max, 2.)
    | Mlu _ -> (Lp_spec.Min, 50.)
  in
  let spec =
    {
      Lp_spec.sense;
      cols = Array.of_list (List.rev !cols);
      rows = Array.of_list (List.rev !rows);
      dual_bound;
    }
  in
  (spec, { pair_arr; u_col; cap_rows })

let add_rows spec extra =
  { spec with Lp_spec.rows = Array.append spec.Lp_spec.rows (Array.of_list extra) }

let naive_failover_rows index ~healthy_index ~cap ~d_max =
  let rows = ref [] in
  Array.iteri
    (fun k pc ->
      let hpc = healthy_index.pair_arr.(k) in
      Array.iteri
        (fun j col ->
          (* primary j capped by healthy primary j, backup r by healthy
             primary r; backups beyond the primaries stay uncapped *)
          let jh = if j < pc.n_primary then j else j - pc.n_primary in
          if jh < pc.n_primary then
            rows :=
              {
                Lp_spec.rname = Printf.sprintf "naive_k%d_p%d" k j;
                terms = [ (col, 1.) ];
                rel = Lp_spec.Le;
                rhs = cap hpc.path_cols.(jh);
                slack_bound = d_max;
              }
              :: !rows)
        pc.path_cols)
    index.pair_arr;
  !rows

let pair_flow index k xs =
  Array.fold_left (fun acc c -> acc +. xs.(c)) 0. index.pair_arr.(k).path_cols

let total_flow index xs =
  let acc = ref 0. in
  Array.iteri (fun k _ -> acc := !acc +. pair_flow index k xs) index.pair_arr;
  !acc

let performance objective index xs =
  match objective with
  | Total_flow | Max_min _ -> total_flow index xs
  | Mlu _ -> ( match index.u_col with Some u -> xs.(u) | None -> nan)

let degradation objective ~healthy ~failed =
  match objective with
  | Total_flow | Max_min _ -> healthy -. failed
  | Mlu _ -> failed -. healthy
