(* Bounded-variable two-phase primal simplex on a dense tableau.

   Internal form: minimize c'x subject to A x = b with per-column bounds
   [l_j, u_j]. Rows of the user model become equalities by adding slack
   columns; artificial columns provide the initial basis for rows whose
   slack cannot absorb the initial residual. Nonbasic columns rest at a
   finite bound (or at 0 for free columns); the tableau stores B^-1 A and
   two reduced-cost rows (phase-1 and phase-2 objectives) that are updated
   on every pivot. Current values of all columns are tracked explicitly in
   [value] so that nonzero nonbasic bounds need no RHS translation. *)

type result =
  | Optimal of { obj : float; values : float array }
  | Infeasible
  | Unbounded
  | Iter_limit

type status = Basic | At_lower | At_upper | At_zero (* free, nonbasic at 0 *)

let eps_pivot = 1e-9
let eps_cost = 1e-9
let eps_feas = 1e-7

(* Pivots are counted into the shared domain-local counter so dense and
   revised solves aggregate identically in a counter scope. *)

type tab = {
  m : int; (* rows *)
  n : int; (* columns *)
  a : float array; (* m*n dense, row-major: B^-1 A *)
  c1 : float array; (* phase-1 reduced costs, length n *)
  c2 : float array; (* phase-2 reduced costs, length n *)
  lo : float array;
  hi : float array;
  value : float array; (* current value of every column *)
  st : status array;
  basis : int array; (* column basic in each row *)
}

let aij t i j = t.a.((i * t.n) + j)

(* Eliminate column [jc] from all rows and both cost rows using pivot row
   [r]. Afterwards column jc is the [r]-th unit vector. *)
let pivot t r jc =
  let n = t.n in
  let prow = r * n in
  let piv = t.a.(prow + jc) in
  let inv = 1. /. piv in
  for j = 0 to n - 1 do
    t.a.(prow + j) <- t.a.(prow + j) *. inv
  done;
  t.a.(prow + jc) <- 1.;
  for i = 0 to t.m - 1 do
    if i <> r then begin
      let f = t.a.((i * n) + jc) in
      if Float.abs f > 1e-12 then begin
        let row = i * n in
        for j = 0 to n - 1 do
          t.a.(row + j) <- t.a.(row + j) -. (f *. t.a.(prow + j))
        done;
        t.a.(row + jc) <- 0.
      end
    end
  done;
  let elim_cost c =
    let f = c.(jc) in
    if Float.abs f > 1e-12 then begin
      for j = 0 to n - 1 do
        c.(j) <- c.(j) -. (f *. t.a.(prow + j))
      done;
      c.(jc) <- 0.
    end
  in
  elim_cost t.c1;
  elim_cost t.c2

(* One simplex phase: minimize the cost row [c] until no eligible entering
   column remains. [blocked j] columns may not enter. Returns [`Optimal],
   [`Unbounded] or [`Iters]. *)
let run_phase t c ~blocked ~max_iters =
  let n = t.n and m = t.m in
  let stall = ref 0 and bland = ref false in
  let rec loop iters =
    if iters > max_iters then `Iters
    else begin
      (* Entering column: nonbasic with profitable reduced cost. *)
      let best = ref (-1) and best_score = ref eps_cost and best_dir = ref 1. in
      (try
         for j = 0 to n - 1 do
           if (not (blocked j)) && t.st.(j) <> Basic then begin
             let d = c.(j) in
             let dir =
               match t.st.(j) with
               | At_lower -> if d < -.eps_cost then 1. else 0.
               | At_upper -> if d > eps_cost then -1. else 0.
               | At_zero -> if d < -.eps_cost then 1. else if d > eps_cost then -1. else 0.
               | Basic -> 0.
             in
             if dir <> 0. then
               if !bland then begin
                 best := j;
                 best_dir := dir;
                 raise Exit
               end
               else if Float.abs d > !best_score then begin
                 best := j;
                 best_score := Float.abs d;
                 best_dir := dir
               end
           end
         done
       with Exit -> ());
      if !best < 0 then `Optimal
      else begin
        Lp_stats.incr Lp_stats.pivots;
        let jc = !best and dir = !best_dir in
        (* Ratio test: how far can column jc move in direction [dir]? *)
        let theta = ref (t.hi.(jc) -. t.lo.(jc)) in
        (* own bound flip distance; infinite for free/one-sided columns *)
        if Float.is_nan !theta then theta := Float.infinity;
        let leave = ref (-1) and leave_to_upper = ref false in
        for i = 0 to m - 1 do
          let y = dir *. aij t i jc in
          let b = t.basis.(i) in
          if y > eps_pivot then begin
            (* basic b decreases, limited by its lower bound *)
            let cap = (t.value.(b) -. t.lo.(b)) /. y in
            if cap < !theta -. 1e-12 || (cap < !theta +. 1e-12 && (!leave < 0 || b < t.basis.(!leave))) then begin
              theta := Float.max 0. cap;
              leave := i;
              leave_to_upper := false
            end
          end
          else if y < -.eps_pivot then begin
            (* basic b increases, limited by its upper bound *)
            let cap = (t.hi.(b) -. t.value.(b)) /. -.y in
            if cap < !theta -. 1e-12 || (cap < !theta +. 1e-12 && (!leave < 0 || b < t.basis.(!leave))) then begin
              theta := Float.max 0. cap;
              leave := i;
              leave_to_upper := true
            end
          end
        done;
        if Float.is_nan !theta || !theta = Float.infinity then
          if !leave < 0 then `Unbounded else `Iters (* cannot happen *)
        else begin
          let step = dir *. !theta in
          (* update basic values and the entering column's value *)
          if !theta > 0. then begin
            for i = 0 to m - 1 do
              let b = t.basis.(i) in
              t.value.(b) <- t.value.(b) -. (step *. aij t i jc)
            done;
            t.value.(jc) <- t.value.(jc) +. step;
            stall := 0
          end
          else begin
            incr stall;
            if !stall > (2 * (m + n)) + 50 then bland := true
          end;
          if !leave < 0 then begin
            (* bound flip: jc moves across its whole range, stays nonbasic *)
            t.st.(jc) <- (if dir > 0. then At_upper else At_lower);
            t.value.(jc) <- (if dir > 0. then t.hi.(jc) else t.lo.(jc));
            loop (iters + 1)
          end
          else begin
            let r = !leave in
            let out = t.basis.(r) in
            (* snap the leaving variable exactly onto the bound it hit *)
            t.value.(out) <- (if !leave_to_upper then t.hi.(out) else t.lo.(out));
            t.st.(out) <- (if !leave_to_upper then At_upper else At_lower);
            if t.lo.(out) = Float.neg_infinity && not !leave_to_upper then t.st.(out) <- At_zero;
            t.basis.(r) <- jc;
            t.st.(jc) <- Basic;
            pivot t r jc;
            loop (iters + 1)
          end
        end
      end
    end
  in
  loop 0

let solve ?lb ?ub ?max_iters model =
  let nv = Model.num_vars model in
  let mlb, mub = Model.bounds model in
  let lb = match lb with Some a -> a | None -> mlb in
  let ub = match ub with Some a -> a | None -> mub in
  let conss = Model.conss model in
  let nc = Array.length conss in
  let sense, obj = Model.objective model in
  (* Column layout: structural vars [0, nv), then one slack per Le/Ge row,
     then artificials as needed. *)
  let n_slack =
    Array.fold_left
      (fun acc (c : Model.cons) -> match c.rel with Model.Le | Model.Ge -> acc + 1 | Model.Eq -> acc)
      0 conss
  in
  let n = nv + n_slack + nc (* upper bound incl. artificials; trim later *) in
  let lo = Array.make n 0. and hi = Array.make n Float.infinity in
  Array.blit lb 0 lo 0 nv;
  Array.blit ub 0 hi 0 nv;
  for i = 0 to nv - 1 do
    if lo.(i) > hi.(i) +. 1e-12 then raise Exit
  done;
  (* initial nonbasic value for structural columns *)
  let init_value j =
    if Float.is_finite lo.(j) then lo.(j)
    else if Float.is_finite hi.(j) then hi.(j)
    else 0.
  in
  try
    let value = Array.make n 0. in
    let st = Array.make n At_lower in
    for j = 0 to nv - 1 do
      value.(j) <- init_value j;
      st.(j) <-
        (if Float.is_finite lo.(j) then At_lower
         else if Float.is_finite hi.(j) then At_upper
         else At_zero)
    done;
    let m = nc in
    let a = Array.make (m * n) 0. in
    let basis = Array.make (max m 1) (-1) in
    let c1 = Array.make n 0. and c2 = Array.make n 0. in
    (* phase-2 costs: minimize internal objective *)
    let osign = match sense with Model.Minimize -> 1. | Model.Maximize -> -1. in
    Linexpr.iter (fun id coef -> c2.(id) <- osign *. coef) obj;
    let next_col = ref nv in
    let n_art = ref 0 in
    let art_flags = Array.make n false in
    for i = 0 to m - 1 do
      let c = conss.(i) in
      let row = i * n in
      (* Normalize Ge rows to Le by negation so slack coefficients are +1. *)
      let flip = match c.rel with Model.Ge -> -1. | Model.Le | Model.Eq -> 1. in
      Linexpr.iter (fun id coef -> a.(row + id) <- a.(row + id) +. (flip *. coef)) c.lhs;
      let rhs = flip *. c.rhs in
      (* residual with structural columns at their initial values *)
      let r = ref rhs in
      Linexpr.iter (fun id coef -> r := !r -. (flip *. coef *. value.(id))) c.lhs;
      let add_col coef =
        let j = !next_col in
        incr next_col;
        a.(row + j) <- coef;
        lo.(j) <- 0.;
        hi.(j) <- Float.infinity;
        j
      in
      let negate_row () =
        for j = 0 to n - 1 do
          a.(row + j) <- -.a.(row + j)
        done;
        r := -. !r
      in
      let add_artificial () =
        if !r < 0. then negate_row ();
        let t = add_col 1. in
        incr n_art;
        c1.(t) <- 1.;
        art_flags.(t) <- true;
        basis.(i) <- t;
        st.(t) <- Basic;
        value.(t) <- !r
      in
      match c.rel with
      | Model.Le | Model.Ge ->
        let s = add_col 1. in
        if !r >= 0. then begin
          basis.(i) <- s;
          st.(s) <- Basic;
          value.(s) <- !r
        end
        else begin
          st.(s) <- At_lower;
          value.(s) <- 0.;
          add_artificial ()
        end
      | Model.Eq -> add_artificial ()
    done;
    let n = !next_col in
    (* Shrink arrays to the actual column count. *)
    let shrink arr = Array.sub arr 0 n in
    let a' = Array.make (m * n) 0. in
    for i = 0 to m - 1 do
      Array.blit a (i * (nv + n_slack + nc)) a' (i * n) n
    done;
    let t =
      {
        m;
        n;
        a = a';
        c1 = shrink c1;
        c2 = shrink c2;
        lo = shrink lo;
        hi = shrink hi;
        value = shrink value;
        st = shrink st;
        basis;
      }
    in
    let max_iters =
      match max_iters with Some k -> k | None -> (50 * (m + n)) + 200
    in
    (* Make both cost rows consistent with the initial basis: eliminate
       basic columns from the cost rows. *)
    let fix_costs c =
      for i = 0 to m - 1 do
        let b = t.basis.(i) in
        let f = c.(b) in
        if Float.abs f > 1e-12 then begin
          let row = i * t.n in
          for j = 0 to t.n - 1 do
            c.(j) <- c.(j) -. (f *. t.a.(row + j))
          done;
          c.(b) <- 0.
        end
      done
    in
    fix_costs t.c1;
    fix_costs t.c2;
    let art = Array.sub art_flags 0 t.n in
    let extract () = Array.sub t.value 0 nv in
    let finish_phase2 () =
      match run_phase t t.c2 ~blocked:(fun j -> art.(j)) ~max_iters with
      | `Optimal ->
        let values = extract () in
        Optimal { obj = Linexpr.eval values obj; values }
      | `Unbounded -> Unbounded
      | `Iters -> Iter_limit
    in
    if !n_art = 0 then finish_phase2 ()
    else begin
      (* artificials were assigned c1 = 1 before elimination; recompute a
         clean phase-1 cost row = sum of artificial rows' negation trick is
         already handled by fix_costs above. *)
      match run_phase t t.c1 ~blocked:(fun _ -> false) ~max_iters with
      | `Unbounded -> Infeasible (* phase-1 objective is bounded below by 0 *)
      | `Iters -> Iter_limit
      | `Optimal ->
        let infeas =
          Array.to_list (Array.mapi (fun j v -> if art.(j) then v else 0.) t.value)
          |> List.fold_left ( +. ) 0.
        in
        if infeas > eps_feas then Infeasible
        else begin
          (* Lock artificials at zero so phase 2 cannot use them. *)
          for j = 0 to t.n - 1 do
            if art.(j) then begin
              t.lo.(j) <- 0.;
              t.hi.(j) <- 0.;
              if t.st.(j) <> Basic then begin
                t.st.(j) <- At_lower;
                t.value.(j) <- 0.
              end
            end
          done;
          finish_phase2 ()
        end
    end
  with Exit -> Infeasible
