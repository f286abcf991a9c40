type rel = Le | Eq

type rhs = Const of float | Outer of Milp.Linexpr.t

type col = { cname : string; obj : float; ub_hint : float }

type row = {
  rname : string;
  terms : (int * float) list;
  rel : rel;
  rhs : rhs;
  slack_bound : float;
}

type sense = Max | Min

type t = { sense : sense; cols : col array; rows : row array; dual_bound : float }

let rhs_expr = function Const c -> Milp.Linexpr.const c | Outer e -> e

let row_lhs vars r =
  Milp.Linexpr.of_terms (List.map (fun (ci, coef) -> (coef, vars.(ci).Milp.Model.vid)) r.terms)

(* [embed] with column [i]'s upper bound [ub.(i)] when [ub] is given *)
let embed_bounded ?prefix ?ub m t =
  let col_name, row_name =
    match prefix with
    | None -> ((fun c -> c.cname), fun _ r -> r.rname)
    | Some p ->
      ((fun c -> p ^ "_" ^ c.cname), fun i r -> Printf.sprintf "%s_pr%d_%s" p i r.rname)
  in
  let vars =
    Array.mapi
      (fun i c ->
        Milp.Model.continuous ?ub:(Option.map (fun u -> u.(i)) ub) m (col_name c))
      t.cols
  in
  Array.iteri
    (fun i r ->
      let rel = match r.rel with Le -> Milp.Model.Le | Eq -> Milp.Model.Eq in
      Milp.Model.add_cons_expr m ~name:(row_name i r) (row_lhs vars r) rel (rhs_expr r.rhs))
    t.rows;
  let obj =
    Milp.Linexpr.of_terms
      (Array.to_list (Array.mapi (fun i c -> (c.obj, vars.(i).Milp.Model.vid)) t.cols))
  in
  (vars, obj)

let embed ?prefix m t = embed_bounded ?prefix m t

let to_model ?ub t =
  if Array.exists (fun r -> match r.rhs with Outer _ -> true | Const _ -> false) t.rows then
    invalid_arg "Lp_spec.to_model: Outer rhs in a standalone LP";
  (match ub with
  | Some u when Array.length u <> Array.length t.cols ->
    invalid_arg "Lp_spec.to_model: one upper bound per column"
  | _ -> ());
  let m = Milp.Model.create ~name:"lp_spec" () in
  let vars, obj = embed_bounded ?ub m t in
  let sense = match t.sense with Max -> Milp.Model.Maximize | Min -> Milp.Model.Minimize in
  Milp.Model.set_objective m sense obj;
  (m, vars)

let solve t =
  let m, _vars = to_model t in
  match Milp.Simplex.solve m with
  | Milp.Simplex.Optimal { obj; values } ->
    `Optimal (obj, Array.sub values 0 (Array.length t.cols))
  | Milp.Simplex.Infeasible -> `Infeasible
  | Milp.Simplex.Unbounded -> `Unbounded
  | Milp.Simplex.Iter_limit -> failwith "Lp_spec.solve: simplex iteration limit"
