type var_kind = Continuous | Binary | Integer
type sense = Maximize | Minimize
type rel = Le | Ge | Eq

type var = { vid : int; vname : string; kind : var_kind; lb : float; ub : float }
type cons = { cname : string; lhs : Linexpr.t; rel : rel; rhs : float }

type t = {
  mname : string;
  mutable vs : var array;
  mutable nv : int;
  mutable cs : cons array;
  mutable nc : int;
  mutable obj_sense : sense;
  mutable obj : Linexpr.t;
  mutable n_int : int;
}

let create ?(name = "model") () =
  {
    mname = name;
    vs = Array.make 16 { vid = -1; vname = ""; kind = Continuous; lb = 0.; ub = 0. };
    nv = 0;
    cs = Array.make 16 { cname = ""; lhs = Linexpr.zero; rel = Le; rhs = 0. };
    nc = 0;
    obj_sense = Maximize;
    obj = Linexpr.zero;
    n_int = 0;
  }

let name m = m.mname

let grow arr n dummy =
  let arr' = Array.make (max 16 (2 * Array.length arr)) dummy in
  Array.blit arr 0 arr' 0 n;
  arr'

let add_var m ~name ~kind ~lb ~ub =
  let lb, ub =
    match kind with
    | Binary -> (Float.max 0. lb, Float.min 1. ub)
    | Continuous | Integer -> (lb, ub)
  in
  if lb > ub then
    invalid_arg (Printf.sprintf "Model.add_var %s: lb %g > ub %g" name lb ub);
  let v = { vid = m.nv; vname = name; kind; lb; ub } in
  if m.nv >= Array.length m.vs then m.vs <- grow m.vs m.nv v;
  m.vs.(m.nv) <- v;
  m.nv <- m.nv + 1;
  (match kind with Binary | Integer -> m.n_int <- m.n_int + 1 | Continuous -> ());
  v

let continuous ?(lb = 0.) ?(ub = Float.infinity) m name =
  add_var m ~name ~kind:Continuous ~lb ~ub

let binary m name = add_var m ~name ~kind:Binary ~lb:0. ~ub:1.
let evar v = Linexpr.var v.vid

let integer ?(lb = 0.) ?(ub = Float.infinity) m name =
  add_var m ~name ~kind:Integer ~lb ~ub

let add_cons m ?name lhs rel rhs =
  let cname =
    match name with Some n -> n | None -> Printf.sprintf "c%d" m.nc
  in
  (* Move the constant part of the lhs to the rhs. *)
  let k = Linexpr.constant lhs in
  let lhs = Linexpr.sub lhs (Linexpr.const k) in
  let c = { cname; lhs; rel; rhs = rhs -. k } in
  if m.nc >= Array.length m.cs then m.cs <- grow m.cs m.nc c;
  m.cs.(m.nc) <- c;
  m.nc <- m.nc + 1

let add_cons_expr m ?name lhs rel rhs =
  add_cons m ?name (Linexpr.sub lhs rhs) rel 0.

let set_objective m sense e =
  m.obj_sense <- sense;
  m.obj <- e

let objective m = (m.obj_sense, m.obj)
let num_vars m = m.nv
let num_cons m = m.nc
let num_int_vars m = m.n_int
let vars m = Array.sub m.vs 0 m.nv
let conss m = Array.sub m.cs 0 m.nc

let var_of_id m id =
  if id < 0 || id >= m.nv then invalid_arg "Model.var_of_id";
  m.vs.(id)

let var_name m id = (var_of_id m id).vname

let bounds m =
  let lb = Array.make m.nv 0. and ub = Array.make m.nv 0. in
  for i = 0 to m.nv - 1 do
    lb.(i) <- m.vs.(i).lb;
    ub.(i) <- m.vs.(i).ub
  done;
  (lb, ub)

let int_var_ids m =
  let rec loop i acc =
    if i < 0 then acc
    else
      match m.vs.(i).kind with
      | Binary | Integer -> loop (i - 1) (i :: acc)
      | Continuous -> loop (i - 1) acc
  in
  loop (m.nv - 1) []

let check_feasible ?(tol = 1e-6) m values =
  if Array.length values < m.nv then Some "solution vector too short"
  else
    let bad = ref None in
    for i = 0 to m.nv - 1 do
      if !bad = None then begin
        let v = m.vs.(i) and x = values.(i) in
        if x < v.lb -. tol || x > v.ub +. tol then
          bad := Some (Printf.sprintf "var %s = %g outside [%g, %g]" v.vname x v.lb v.ub)
        else
          match v.kind with
          | Binary | Integer ->
            if Float.abs (x -. Float.round x) > tol then
              bad := Some (Printf.sprintf "var %s = %g not integral" v.vname x)
          | Continuous -> ()
      end
    done;
    for j = 0 to m.nc - 1 do
      if !bad = None then begin
        let c = m.cs.(j) in
        let lhs = Linexpr.eval values c.lhs in
        let viol =
          match c.rel with
          | Le -> lhs -. c.rhs
          | Ge -> c.rhs -. lhs
          | Eq -> Float.abs (lhs -. c.rhs)
        in
        if viol > tol then
          bad := Some (Printf.sprintf "constraint %s violated by %g" c.cname viol)
      end
    done;
    !bad

let objective_value m values = Linexpr.eval values m.obj
