(* CSC standard form: structural columns from the model rows, one +1
   logical (slack) column per row. See sparse.mli for the layout. *)

type t = {
  m : int;
  n : int;
  nv : int;
  colptr : int array;
  rowind : int array;
  values : float array;
  b : float array;
  cost : float array;
  slack_lo : float array;
  slack_hi : float array;
}

let of_model model =
  let nv = Model.num_vars model in
  let conss = Model.conss model in
  let m = Array.length conss in
  let n = nv + m in
  (* column entry counts: structural from the rows, one per slack *)
  let count = Array.make n 0 in
  Array.iter
    (fun (c : Model.cons) ->
      Linexpr.iter (fun id v -> if v <> 0. then count.(id) <- count.(id) + 1) c.lhs)
    conss;
  for i = 0 to m - 1 do
    count.(nv + i) <- 1
  done;
  let colptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    colptr.(j + 1) <- colptr.(j) + count.(j)
  done;
  let nnz = colptr.(n) in
  let rowind = Array.make (max nnz 1) 0 in
  let values = Array.make (max nnz 1) 0. in
  let next = Array.copy colptr in
  let b = Array.make (max m 1) 0. in
  let slack_lo = Array.make (max m 1) 0. in
  let slack_hi = Array.make (max m 1) 0. in
  Array.iteri
    (fun i (c : Model.cons) ->
      Linexpr.iter
        (fun id v ->
          if v <> 0. then begin
            rowind.(next.(id)) <- i;
            values.(next.(id)) <- v;
            next.(id) <- next.(id) + 1
          end)
        c.lhs;
      let j = nv + i in
      rowind.(next.(j)) <- i;
      values.(next.(j)) <- 1.;
      next.(j) <- next.(j) + 1;
      b.(i) <- c.rhs;
      (match c.rel with
      | Model.Le ->
        slack_lo.(i) <- 0.;
        slack_hi.(i) <- Float.infinity
      | Model.Ge ->
        slack_lo.(i) <- Float.neg_infinity;
        slack_hi.(i) <- 0.
      | Model.Eq ->
        slack_lo.(i) <- 0.;
        slack_hi.(i) <- 0.))
    conss;
  let cost = Array.make n 0. in
  let sense, obj = Model.objective model in
  let osign = match sense with Model.Minimize -> 1. | Model.Maximize -> -1. in
  Linexpr.iter (fun id v -> cost.(id) <- osign *. v) obj;
  { m; n; nv; colptr; rowind; values; b; cost; slack_lo; slack_hi }

let col_iter a j f =
  for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
    f a.rowind.(k) a.values.(k)
  done

let col_dot a j y =
  let acc = ref 0. in
  for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
    acc := !acc +. (a.values.(k) *. y.(a.rowind.(k)))
  done;
  !acc

let axpy_col a j alpha x =
  for k = a.colptr.(j) to a.colptr.(j + 1) - 1 do
    let i = a.rowind.(k) in
    x.(i) <- x.(i) +. (alpha *. a.values.(k))
  done
