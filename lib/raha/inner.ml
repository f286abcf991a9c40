type t = {
  xs : Milp.Model.var array;
  duals : Milp.Model.var array;
  objective : Milp.Linexpr.t;
}

(* Normalize the spec to maximization: c is the (possibly negated)
   objective vector used by the optimality conditions. *)
let norm_obj (spec : Te.Lp_spec.t) =
  let sign = match spec.Te.Lp_spec.sense with Te.Lp_spec.Max -> 1. | Te.Lp_spec.Min -> -1. in
  Array.map (fun (c : Te.Lp_spec.col) -> sign *. c.Te.Lp_spec.obj) spec.Te.Lp_spec.cols

let rhs_expr = function
  | Te.Lp_spec.Const c -> Milp.Linexpr.const c
  | Te.Lp_spec.Outer e -> e

let add_primal_rows m ~prefix (spec : Te.Lp_spec.t) xs =
  Array.iteri
    (fun i (r : Te.Lp_spec.row) ->
      let lhs =
        Milp.Linexpr.of_terms
          (List.map (fun (ci, coef) -> (coef, xs.(ci).Milp.Model.vid)) r.Te.Lp_spec.terms)
      in
      let rel =
        match r.Te.Lp_spec.rel with Te.Lp_spec.Le -> Milp.Model.Le | Te.Lp_spec.Eq -> Milp.Model.Eq
      in
      Milp.Model.add_cons_expr m
        ~name:(Printf.sprintf "%s_pr%d_%s" prefix i r.Te.Lp_spec.rname)
        lhs rel (rhs_expr r.Te.Lp_spec.rhs))
    spec.Te.Lp_spec.rows

let make_primal m ~prefix (spec : Te.Lp_spec.t) =
  let xs =
    Array.map
      (fun (c : Te.Lp_spec.col) ->
        Milp.Model.continuous m (prefix ^ "_" ^ c.Te.Lp_spec.cname))
      spec.Te.Lp_spec.cols
  in
  add_primal_rows m ~prefix spec xs;
  let objective =
    Milp.Linexpr.of_terms
      (Array.to_list
         (Array.mapi
            (fun i (c : Te.Lp_spec.col) -> (c.Te.Lp_spec.obj, xs.(i).Milp.Model.vid))
            spec.Te.Lp_spec.cols))
  in
  (xs, objective)

let embed_primal m ~prefix spec =
  let xs, objective = make_primal m ~prefix spec in
  { xs; duals = [||]; objective }

(* Dual variables and the dual feasibility rows A' y >= c (for the
   normalized maximization). Le rows get y >= 0; Eq rows free duals. *)
let make_duals m ~prefix (spec : Te.Lp_spec.t) =
  let bound = spec.Te.Lp_spec.dual_bound in
  let duals =
    Array.mapi
      (fun i (r : Te.Lp_spec.row) ->
        match r.Te.Lp_spec.rel with
        | Te.Lp_spec.Le ->
          Milp.Model.continuous ~lb:0. ~ub:bound m (Printf.sprintf "%s_y%d" prefix i)
        | Te.Lp_spec.Eq ->
          Milp.Model.continuous ~lb:(-.bound) ~ub:bound m (Printf.sprintf "%s_y%d" prefix i))
      spec.Te.Lp_spec.rows
  in
  let c = norm_obj spec in
  (* column-wise accumulation of A' y *)
  let n = Array.length spec.Te.Lp_spec.cols in
  let acc = Array.make n Milp.Linexpr.zero in
  Array.iteri
    (fun i (r : Te.Lp_spec.row) ->
      List.iter
        (fun (ci, coef) -> acc.(ci) <- Milp.Linexpr.add_term acc.(ci) coef duals.(i).Milp.Model.vid)
        r.Te.Lp_spec.terms)
    spec.Te.Lp_spec.rows;
  Array.iteri
    (fun j e ->
      Milp.Model.add_cons_expr m
        ~name:(Printf.sprintf "%s_dual%d" prefix j)
        e Milp.Model.Ge
        (Milp.Linexpr.const c.(j)))
    acc;
  (duals, acc, c)

let encode_kkt m ~prefix spec =
  let xs, objective = make_primal m ~prefix spec in
  let duals, aty, c = make_duals m ~prefix spec in
  let bound = spec.Te.Lp_spec.dual_bound in
  (* row complementary slackness: y_i > 0 -> row tight (Le rows only) *)
  Array.iteri
    (fun i (r : Te.Lp_spec.row) ->
      match r.Te.Lp_spec.rel with
      | Te.Lp_spec.Eq -> ()
      | Te.Lp_spec.Le ->
        let w = Milp.Model.binary m (Printf.sprintf "%s_w%d" prefix i) in
        (* y_i <= bound * w *)
        Milp.Model.add_cons_expr m
          ~name:(Printf.sprintf "%s_csr%d_a" prefix i)
          (Milp.Model.evar duals.(i))
          Milp.Model.Le
          (Milp.Linexpr.var ~coeff:bound w.Milp.Model.vid);
        (* rhs - lhs <= slack_bound * (1 - w) *)
        let lhs =
          Milp.Linexpr.of_terms
            (List.map (fun (ci, coef) -> (coef, xs.(ci).Milp.Model.vid)) r.Te.Lp_spec.terms)
        in
        let slack = Milp.Linexpr.sub (rhs_expr r.Te.Lp_spec.rhs) lhs in
        let sb = r.Te.Lp_spec.slack_bound in
        Milp.Model.add_cons_expr m
          ~name:(Printf.sprintf "%s_csr%d_b" prefix i)
          slack Milp.Model.Le
          (Milp.Linexpr.of_terms ~const:sb [ (-.sb, w.Milp.Model.vid) ]))
    spec.Te.Lp_spec.rows;
  (* column complementary slackness: x_j > 0 -> reduced cost 0 *)
  Array.iteri
    (fun j (col : Te.Lp_spec.col) ->
      let v = Milp.Model.binary m (Printf.sprintf "%s_v%d" prefix j) in
      (* x_j <= ub_hint * v *)
      Milp.Model.add_cons_expr m
        ~name:(Printf.sprintf "%s_csc%d_a" prefix j)
        (Milp.Model.evar xs.(j))
        Milp.Model.Le
        (Milp.Linexpr.var ~coeff:col.Te.Lp_spec.ub_hint v.Milp.Model.vid);
      (* (A'y)_j - c_j <= rc_bound * (1 - v) *)
      let rc_bound =
        let asum =
          Array.fold_left
            (fun acc (r : Te.Lp_spec.row) ->
              List.fold_left
                (fun acc (ci, coef) -> if ci = j then acc +. Float.abs coef else acc)
                acc r.Te.Lp_spec.terms)
            0. spec.Te.Lp_spec.rows
        in
        (spec.Te.Lp_spec.dual_bound *. asum) +. Float.abs c.(j) +. 1.
      in
      let reduced = Milp.Linexpr.sub aty.(j) (Milp.Linexpr.const c.(j)) in
      Milp.Model.add_cons_expr m
        ~name:(Printf.sprintf "%s_csc%d_b" prefix j)
        reduced Milp.Model.Le
        (Milp.Linexpr.of_terms ~const:rc_bound [ (-.rc_bound, v.Milp.Model.vid) ]))
    spec.Te.Lp_spec.cols;
  { xs; duals; objective }

let encode_strong_duality m ~prefix spec =
  let xs, objective = make_primal m ~prefix spec in
  let duals, _aty, c = make_duals m ~prefix spec in
  let bound = spec.Te.Lp_spec.dual_bound in
  (* b' y, with products (outer binary) * (dual) expanded via McCormick *)
  let by = ref Milp.Linexpr.zero in
  Array.iteri
    (fun i (r : Te.Lp_spec.row) ->
      let y = duals.(i) in
      let ylb = match r.Te.Lp_spec.rel with Te.Lp_spec.Le -> 0. | Te.Lp_spec.Eq -> -.bound in
      let e = rhs_expr r.Te.Lp_spec.rhs in
      (* constant part *)
      by := Milp.Linexpr.add !by (Milp.Linexpr.var ~coeff:(Milp.Linexpr.constant e) y.Milp.Model.vid);
      let term_idx = ref 0 in
      Milp.Linexpr.iter
        (fun vid coef ->
          let outer_var = Milp.Model.var_of_id m vid in
          if outer_var.Milp.Model.kind <> Milp.Model.Binary then
            invalid_arg
              (Printf.sprintf
                 "Inner.encode_strong_duality: rhs of row %s mentions non-binary var %s"
                 r.Te.Lp_spec.rname outer_var.Milp.Model.vname);
          let z =
            Milp.Linearize.product_bin_var m
              ~name:(Printf.sprintf "%s_by%d_%d" prefix i !term_idx)
              outer_var y ~lb:ylb ~ub:bound
          in
          incr term_idx;
          by := Milp.Linexpr.add_term !by coef z.Milp.Model.vid)
        e)
    spec.Te.Lp_spec.rows;
  (* strong duality: c' x >= b' y (weak duality provides <=) *)
  let cx =
    Milp.Linexpr.of_terms
      (Array.to_list (Array.mapi (fun j cj -> (cj, xs.(j).Milp.Model.vid)) c))
  in
  Milp.Model.add_cons_expr m ~name:(prefix ^ "_strong_duality") cx Milp.Model.Ge !by;
  { xs; duals; objective }
