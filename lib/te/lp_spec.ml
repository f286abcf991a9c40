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

let objective_value t xs =
  let acc = ref 0. in
  Array.iteri (fun i c -> acc := !acc +. (c.obj *. xs.(i))) t.cols;
  !acc

let const_rhs = function
  | Const c -> c
  | Outer _ -> invalid_arg "Lp_spec.to_model: Outer rhs in a standalone LP"

let to_model t =
  let m = Milp.Model.create ~name:"lp_spec" () in
  let vars =
    Array.map (fun c -> Milp.Model.continuous m c.cname) t.cols
  in
  Array.iter
    (fun r ->
      let lhs =
        Milp.Linexpr.of_terms
          (List.map (fun (ci, coef) -> (coef, vars.(ci).Milp.Model.vid)) r.terms)
      in
      let rel = match r.rel with Le -> Milp.Model.Le | Eq -> Milp.Model.Eq in
      Milp.Model.add_cons m ~name:r.rname lhs rel (const_rhs r.rhs))
    t.rows;
  let obj =
    Milp.Linexpr.of_terms
      (Array.to_list (Array.mapi (fun i c -> (c.obj, vars.(i).Milp.Model.vid)) t.cols))
  in
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
