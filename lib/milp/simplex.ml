(* Revised simplex with a sparse CSC matrix and an LU-factorized basis
   (Basis / Sparse), plus a bounded-variable dual simplex for
   warm-started re-solves. The legacy dense tableau (Dense_simplex)
   stays reachable through [~engine:Dense] for differential testing.

   Internal form (Sparse.of_model): minimize c'x over A x = b with
   per-column bounds; columns are the nv structurals followed by one
   logical (slack) column per row, so the all-slack basis is always
   available as a trivially factorizable cold start. A cold solve runs
   a composite phase 1 (dynamic infeasibility costs on out-of-bound
   basics, no artificial columns) and then the primal phase 2; a warm
   solve re-installs the caller's basis and runs the dual simplex —
   after a branch-and-bound bound change the parent's optimal basis
   stays dual feasible, so children typically need a handful of dual
   pivots. Any numerical trouble in the warm path falls back to the
   cold primal within the same iteration budget. *)

type result =
  | Optimal of { obj : float; values : float array }
  | Infeasible
  | Unbounded
  | Iter_limit

type vstat = Basic | At_lower | At_upper | At_zero

type engine = Revised | Dense

type basis = {
  bn : int; (* internal columns (nv + rows) — guards cross-model reuse *)
  bnv : int;
  bstat : vstat array;
  bbcols : int array;
  bfactor : Basis.snapshot option Atomic.t;
      (* factorization of bbcols (LU plus eta file), published at
         extraction ([keep_factor]) or on first warm use, so repeated
         warm starts from the same basis skip the factorization.
         Deterministic: a racy publish from another domain stores an
         identical value. *)
}

type prepared = { pmodel : Model.t; sp : Sparse.t }

let eps_cost = 1e-9
let eps_pivot = 1e-9
let eps_feas = 1e-7
let eps_dual = 1e-6
let eps_degen = 1e-10

let prepare model = { pmodel = model; sp = Sparse.of_model model }

let prep_sparse prep = prep.sp
let prep_model prep = prep.pmodel

let var_statuses b = Array.sub b.bstat 0 b.bnv

let basis_statuses b = Array.copy b.bstat
let basis_cols b = Array.copy b.bbcols

(* Extend a basis to a prepared model that appended rows (cutting
   planes) to the one the basis came from. The new rows' slack columns
   enter the basis, so the basis matrix becomes block lower triangular
   [[B 0]; [C I]]: the old dual values and reduced costs carry over
   unchanged (the new rows price at y = 0), which keeps a dual-feasible
   basis dual feasible in the extended problem. Returns [None] when the
   shapes are incompatible (different structural count, or fewer rows
   than the basis was built for). *)
let extend_basis b prep =
  let sp = prep.sp in
  if b.bnv <> sp.Sparse.nv || b.bn > sp.Sparse.n then None
  else if b.bn = sp.Sparse.n then Some b
  else begin
    let n = sp.Sparse.n in
    let bstat = Array.make n Basic in
    Array.blit b.bstat 0 bstat 0 b.bn;
    let extra = Array.init (n - b.bn) (fun i -> b.bn + i) in
    Some
      { bn = n; bnv = b.bnv; bstat; bbcols = Array.append b.bbcols extra;
        bfactor = Atomic.make None }
  end

(* ------------------------------------------------------------------ *)
(* Mutable solve state                                                 *)

type st = {
  sp : Sparse.t;
  rhs : float array; (* effective row rhs: sp.b or a caller overlay *)
  lo : float array; (* length n: structural overrides ++ slack bounds *)
  hi : float array;
  x : float array; (* current value of every column *)
  stat : vstat array;
  bcols : int array; (* basic column per row position, length m *)
  mutable bas : Basis.t;
  mutable bland : bool;
  mutable degen : int; (* consecutive degenerate pivots *)
  degen_limit : int;
  mutable iters : int; (* remaining pivot budget *)
  mutable dj : float array option; (* reduced costs of the current basis *)
}

exception Box_infeasible

let fresh_bounds (prep : prepared) ?lb ?ub () =
  let sp = prep.sp in
  let nv = sp.Sparse.nv and m = sp.Sparse.m and n = sp.Sparse.n in
  let mlb, mub = Model.bounds prep.pmodel in
  let lb = match lb with Some a -> a | None -> mlb in
  let ub = match ub with Some a -> a | None -> mub in
  let lo = Array.make n 0. and hi = Array.make n 0. in
  Array.blit lb 0 lo 0 nv;
  Array.blit ub 0 hi 0 nv;
  for i = 0 to m - 1 do
    lo.(nv + i) <- sp.Sparse.slack_lo.(i);
    hi.(nv + i) <- sp.Sparse.slack_hi.(i)
  done;
  for j = 0 to nv - 1 do
    if lo.(j) > hi.(j) +. 1e-12 then raise Box_infeasible
  done;
  (lo, hi)

(* Recompute basic values from scratch: x_B = B^-1 (b - A_N x_N).
   Called after every refactorization to shed accumulated drift. *)
let compute_xb st =
  let sp = st.sp in
  let m = sp.Sparse.m in
  if m > 0 then begin
    let rhs = Array.sub st.rhs 0 m in
    for j = 0 to sp.Sparse.n - 1 do
      if st.stat.(j) <> Basic && st.x.(j) <> 0. then
        Sparse.axpy_col sp j (-.st.x.(j)) rhs
    done;
    let xb = Basis.ftran st.bas rhs in
    for r = 0 to m - 1 do
      st.x.(st.bcols.(r)) <- xb.(r)
    done
  end

let nonbasic_value st j =
  match st.stat.(j) with
  | At_lower -> st.lo.(j)
  | At_upper -> st.hi.(j)
  | At_zero -> 0.
  | Basic -> st.x.(j)

(* Cold state: structural columns rest at a finite bound (0 for free
   columns), every slack is basic. *)
let cold_state (prep : prepared) ~rhs (lo, hi) ~max_iters ~degen_limit =
  let sp = prep.sp in
  let nv = sp.Sparse.nv and m = sp.Sparse.m and n = sp.Sparse.n in
  let stat = Array.make n At_lower in
  let x = Array.make n 0. in
  for j = 0 to nv - 1 do
    stat.(j) <-
      (if Float.is_finite lo.(j) then At_lower
       else if Float.is_finite hi.(j) then At_upper
       else At_zero)
  done;
  let bcols = Array.init m (fun i -> nv + i) in
  for i = 0 to m - 1 do
    stat.(nv + i) <- Basic
  done;
  let st =
    {
      sp;
      rhs;
      lo;
      hi;
      x;
      stat;
      bcols;
      bas = Basis.create sp bcols;
      bland = false;
      degen = 0;
      degen_limit;
      iters = max_iters;
      dj = None;
    }
  in
  for j = 0 to n - 1 do
    if st.stat.(j) <> Basic then st.x.(j) <- nonbasic_value st j
  done;
  compute_xb st;
  st

(* Warm state from a caller-provided basis: re-install statuses, clamp
   nonbasics onto the (possibly tightened) bounds, refactorize. The
   factorization may repair a singular selection, in which case the
   statuses are reconciled with the repaired column set. *)
let warm_state (prep : prepared) ~rhs (lo, hi) (b : basis) ~max_iters ~degen_limit =
  let sp = prep.sp in
  let n = sp.Sparse.n in
  let stat = Array.copy b.bstat in
  let x = Array.make n 0. in
  let bas =
    (* reuse the published factorization when this basis carries one
       for this very matrix (the batched engine warm-starts thousands
       of overlay solves from one healthy basis; branch-and-bound
       publishes at extraction); otherwise factorize and publish.
       Basis.of_snapshot refuses any other matrix. A snapshot published
       here holds a fresh create (no etas), so a hit reproduces the miss
       bit for bit. *)
    match Option.bind (Atomic.get b.bfactor) (Basis.of_snapshot sp) with
    | Some bas -> bas
    | None ->
      let bas = Basis.create sp b.bbcols in
      Atomic.set b.bfactor (Some (Basis.snapshot bas));
      bas
  in
  let bcols = Basis.bcols bas in
  (* repair reconciliation: exactly the bcols entries are basic *)
  Array.iteri (fun j s -> if s = Basic then stat.(j) <- At_lower) stat;
  Array.iter (fun j -> stat.(j) <- Basic) bcols;
  let st =
    { sp; rhs; lo; hi; x; stat; bcols; bas; bland = false; degen = 0;
      degen_limit; iters = max_iters; dj = None }
  in
  for j = 0 to n - 1 do
    if st.stat.(j) <> Basic then begin
      (* clamp statuses onto finite/tightened bounds *)
      (match st.stat.(j) with
      | At_lower when not (Float.is_finite lo.(j)) ->
        st.stat.(j) <- (if Float.is_finite hi.(j) then At_upper else At_zero)
      | At_upper when not (Float.is_finite hi.(j)) ->
        st.stat.(j) <- (if Float.is_finite lo.(j) then At_lower else At_zero)
      | At_zero when lo.(j) > 0. -> st.stat.(j) <- At_lower
      | At_zero when hi.(j) < 0. -> st.stat.(j) <- At_upper
      | _ -> ());
      st.x.(j) <- nonbasic_value st j
    end
  done;
  compute_xb st;
  st

(* ------------------------------------------------------------------ *)
(* Shared pivot machinery                                              *)

let track_degeneracy st theta =
  if Float.abs theta > eps_degen then st.degen <- 0
  else begin
    st.degen <- st.degen + 1;
    if st.degen > st.degen_limit then st.bland <- true
  end

let dense_column st j =
  let m = st.sp.Sparse.m in
  let col = Array.make (max m 1) 0. in
  Sparse.axpy_col st.sp j 1. col;
  col

(* A refactorization may repair a singular basis by swapping slack
   columns into some positions (see Basis.build_lu). Reconcile
   [st.bcols]/[st.stat] with the basis' actual column set — the same
   way [warm_state] does — so [compute_xb] writes basic values to the
   right columns. *)
let sync_repair st =
  let actual = Basis.bcols st.bas in
  let changed = ref false in
  Array.iteri
    (fun r c -> if st.bcols.(r) <> c then changed := true)
    actual;
  if !changed then begin
    Array.blit actual 0 st.bcols 0 (Array.length actual);
    Array.iteri
      (fun j s ->
        if s = Basic then begin
          st.stat.(j) <-
            (if Float.is_finite st.lo.(j) then At_lower
             else if Float.is_finite st.hi.(j) then At_upper
             else At_zero);
          st.x.(j) <- nonbasic_value st j
        end)
      st.stat;
    Array.iter (fun j -> st.stat.(j) <- Basic) st.bcols
  end

(* Install column [j] as basic in row position [r]; [w] is its FTRAN
   image. Returns after recomputing values if the basis refactorized. *)
let basis_exchange st ~r ~j ~w =
  st.dj <- None;
  st.bcols.(r) <- j;
  st.stat.(j) <- Basic;
  let refactored = Basis.replace st.bas ~r ~col:j ~w in
  if refactored then begin
    sync_repair st;
    compute_xb st
  end

(* ------------------------------------------------------------------ *)
(* Primal simplex (phases 1 and 2)                                     *)

(* Phase-aware entering direction for a nonbasic column with reduced
   cost [d]: +1 to increase, -1 to decrease, 0 when ineligible. *)
let entering_dir st j d =
  if st.stat.(j) = Basic || st.hi.(j) -. st.lo.(j) <= 1e-12 then 0.
  else
    match st.stat.(j) with
    | At_lower -> if d < -.eps_cost then 1. else 0.
    | At_upper -> if d > eps_cost then -1. else 0.
    | At_zero -> if d < -.eps_cost then 1. else if d > eps_cost then -1. else 0.
    | Basic -> 0.

(* Bounded-variable ratio test. In phase 1, basic variables that are
   outside their bounds block only when the step would carry them back
   onto the violated bound (movement deeper into infeasibility is paid
   for by the dynamic cost, never blocked). Returns the blocking row
   (or [-1] for a bound flip), the step, and the bound hit. *)
let ratio_test st ~phase1 ~dir ~w ~j =
  let m = st.sp.Sparse.m in
  let theta = ref (st.hi.(j) -. st.lo.(j)) in
  if Float.is_nan !theta then theta := Float.infinity;
  let leave = ref (-1) and to_upper = ref false in
  for r = 0 to m - 1 do
    let y = dir *. w.(r) in
    if Float.abs y > eps_pivot then begin
      let b = st.bcols.(r) in
      let xb = st.x.(b) in
      let cap, up =
        if phase1 && xb < st.lo.(b) -. eps_feas then
          (* infeasible below: blocks only when rising back to lower *)
          if y < 0. then ((st.lo.(b) -. xb) /. -.y, false)
          else (Float.infinity, false)
        else if phase1 && xb > st.hi.(b) +. eps_feas then
          if y > 0. then ((xb -. st.hi.(b)) /. y, true)
          else (Float.infinity, false)
        else if y > 0. then ((xb -. st.lo.(b)) /. y, false)
        else ((st.hi.(b) -. xb) /. -.y, true)
      in
      if cap < Float.infinity then
        if
          cap < !theta -. 1e-12
          || (cap < !theta +. 1e-12
             && (!leave < 0 || b < st.bcols.(!leave)))
        then begin
          theta := Float.max 0. cap;
          leave := r;
          to_upper := up
        end
    end
  done;
  (!leave, !theta, !to_upper)

let apply_primal_step st ~j ~dir ~w ~leave ~theta ~to_upper =
  let m = st.sp.Sparse.m in
  let step = dir *. theta in
  if theta > 0. then begin
    for r = 0 to m - 1 do
      let b = st.bcols.(r) in
      st.x.(b) <- st.x.(b) -. (step *. w.(r))
    done;
    st.x.(j) <- st.x.(j) +. step
  end;
  track_degeneracy st theta;
  Lp_stats.incr Lp_stats.pivots;
  st.iters <- st.iters - 1;
  if leave < 0 then begin
    (* bound flip: [j] crosses its whole range, stays nonbasic *)
    st.stat.(j) <- (if dir > 0. then At_upper else At_lower);
    st.x.(j) <- (if dir > 0. then st.hi.(j) else st.lo.(j))
  end
  else begin
    let out = st.bcols.(leave) in
    st.x.(out) <- (if to_upper then st.hi.(out) else st.lo.(out));
    st.stat.(out) <- (if to_upper then At_upper else At_lower);
    basis_exchange st ~r:leave ~j ~w
  end

(* One primal phase. Phase 1 minimizes total bound infeasibility of the
   basic variables (dynamic ±1 costs); phase 2 minimizes the real
   objective. *)
let run_primal st ~phase1 =
  let sp = st.sp in
  let m = sp.Sparse.m and n = sp.Sparse.n in
  let cb = Array.make (max m 1) 0. in
  let rec loop () =
    if st.iters <= 0 then `Iters
    else begin
      (* basic cost row + feasibility measure *)
      let maxviol = ref 0. in
      for r = 0 to m - 1 do
        let b = st.bcols.(r) in
        let xb = st.x.(b) in
        if xb < st.lo.(b) -. eps_feas then begin
          maxviol := Float.max !maxviol (st.lo.(b) -. xb);
          cb.(r) <- -1.
        end
        else if xb > st.hi.(b) +. eps_feas then begin
          maxviol := Float.max !maxviol (xb -. st.hi.(b));
          cb.(r) <- 1.
        end
        else cb.(r) <- (if phase1 then 0. else sp.Sparse.cost.(b))
      done;
      if phase1 && !maxviol <= eps_feas then `Feasible
      else begin
        let y = Basis.btran st.bas cb in
        (* pricing: d_j = c_j - y . a_j over nonbasic columns *)
        let best = ref (-1) and best_score = ref eps_cost and best_dir = ref 1. in
        (try
           for j = 0 to n - 1 do
             if st.stat.(j) <> Basic then begin
               let cj = if phase1 then 0. else sp.Sparse.cost.(j) in
               let d = cj -. Sparse.col_dot sp j y in
               let dir = entering_dir st j d in
               if dir <> 0. then
                 if st.bland then begin
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
        if !best < 0 then
          if phase1 then `Still_infeasible
          else if !maxviol > eps_feas then
            (* refactorization drift pushed a basic outside its bounds:
               pricing is clean but the point is not feasible, so this
               is not an optimum *)
            `Lost_feas
          else `Optimal
        else begin
          let j = !best and dir = !best_dir in
          let w = Basis.ftran st.bas (dense_column st j) in
          let leave, theta, to_upper = ratio_test st ~phase1 ~dir ~w ~j in
          if leave < 0 && theta = Float.infinity then
            if phase1 then `Still_infeasible (* numerically stuck ray *)
            else `Unbounded
          else begin
            apply_primal_step st ~j ~dir ~w ~leave ~theta ~to_upper;
            loop ()
          end
        end
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Dual simplex                                                        *)

(* Reduced costs of all columns for the real objective. They depend
   only on the basis, so they are computed once per basis: the warm
   path's dual-feasibility check, the first dual iteration and the
   final check of a solve without pivots share one vector. *)
let reduced_costs st =
  match st.dj with
  | Some d -> d
  | None ->
    let sp = st.sp in
    let m = sp.Sparse.m and n = sp.Sparse.n in
    let cb = Array.make (max m 1) 0. in
    for r = 0 to m - 1 do
      cb.(r) <- sp.Sparse.cost.(st.bcols.(r))
    done;
    let y = Basis.btran st.bas cb in
    let d =
      Array.init n (fun j ->
          if st.stat.(j) = Basic then 0.
          else sp.Sparse.cost.(j) -. Sparse.col_dot sp j y)
    in
    st.dj <- Some d;
    d

let dual_feasible st d =
  let ok = ref true in
  Array.iteri
    (fun j s ->
      if !ok && s <> Basic && st.hi.(j) -. st.lo.(j) > 1e-12 then
        match s with
        | At_lower -> if d.(j) < -.eps_dual then ok := false
        | At_upper -> if d.(j) > eps_dual then ok := false
        | At_zero -> if Float.abs d.(j) > eps_dual then ok := false
        | Basic -> ())
    st.stat;
  !ok

(* Dual simplex loop: repair primal feasibility while keeping dual
   feasibility. Assumes the caller verified dual feasibility. *)
let run_dual st =
  let sp = st.sp in
  let m = sp.Sparse.m and n = sp.Sparse.n in
  let rec loop () =
    if st.iters <= 0 then `Iters
    else begin
      (* leaving: the most violated basic variable *)
      let r = ref (-1) and viol = ref eps_feas and below = ref false in
      for i = 0 to m - 1 do
        let b = st.bcols.(i) in
        let xb = st.x.(b) in
        if st.lo.(b) -. xb > !viol then begin
          viol := st.lo.(b) -. xb;
          r := i;
          below := true
        end
        else if xb -. st.hi.(b) > !viol then begin
          viol := xb -. st.hi.(b);
          r := i;
          below := false
        end
      done;
      if !r < 0 then `Optimal
      else begin
        let r = !r and below = !below in
        let d = reduced_costs st in
        let er = Array.make (max m 1) 0. in
        er.(r) <- 1.;
        let rho = Basis.btran st.bas er in
        (* dual ratio test over the pivot row alpha_j = rho . a_j *)
        let bestj = ref (-1)
        and best_ratio = ref Float.infinity
        and best_mag = ref 0. in
        (try
           for j = 0 to n - 1 do
             if st.stat.(j) <> Basic && st.hi.(j) -. st.lo.(j) > 1e-12 then begin
               let alpha = Sparse.col_dot sp j rho in
               if Float.abs alpha > eps_pivot then begin
                 let eligible =
                   match (st.stat.(j), below) with
                   | At_lower, true -> alpha < 0.
                   | At_lower, false -> alpha > 0.
                   | At_upper, true -> alpha > 0.
                   | At_upper, false -> alpha < 0.
                   | At_zero, _ -> true
                   | Basic, _ -> false
                 in
                 if eligible then begin
                   let ratio = Float.abs d.(j) /. Float.abs alpha in
                   if st.bland then begin
                     (* Bland mode still needs the min-ratio test (a
                        non-min-ratio dual pivot breaks dual
                        feasibility); the scan runs in column order, so
                        taking only strict improvements keeps the
                        lowest index among ratio ties *)
                     if ratio < !best_ratio -. 1e-12 then begin
                       bestj := j;
                       best_ratio := ratio;
                       best_mag := Float.abs alpha
                     end
                   end
                   else if
                     ratio < !best_ratio -. 1e-12
                     || (ratio < !best_ratio +. 1e-12
                        && Float.abs alpha > !best_mag)
                   then begin
                     bestj := j;
                     best_ratio := ratio;
                     best_mag := Float.abs alpha
                   end
                 end
               end
             end
           done
         with Exit -> ());
        if !bestj < 0 then `Infeasible (* dual unbounded *)
        else begin
          let q = !bestj in
          let w = Basis.ftran st.bas (dense_column st q) in
          if Float.abs w.(r) < 1e-9 then `Numerical
          else begin
            let out = st.bcols.(r) in
            let bound = if below then st.lo.(out) else st.hi.(out) in
            let t = (st.x.(out) -. bound) /. w.(r) in
            for i = 0 to m - 1 do
              let b = st.bcols.(i) in
              st.x.(b) <- st.x.(b) -. (t *. w.(i))
            done;
            st.x.(q) <- st.x.(q) +. t;
            st.x.(out) <- bound;
            st.stat.(out) <- (if below then At_lower else At_upper);
            track_degeneracy st (Float.abs d.(q));
            Lp_stats.incr Lp_stats.dual_pivots;
            Lp_stats.incr Lp_stats.pivots;
            st.iters <- st.iters - 1;
            basis_exchange st ~r ~j:q ~w;
            loop ()
          end
        end
      end
    end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)

let extract_basis ?(keep_factor = false) st =
  (* [keep_factor] publishes the basis snapshot (LU plus eta file, no
     refactorization) at extraction time instead of on first warm use.
     A basis shared across concurrent subtree solves then carries its
     factorization from birth: every sharer reinstates it without
     factorizing (Basis.of_snapshot), and the factorization counter
     stays independent of which domain warms first — a lazy fill would
     let racing sharers each pay (and count) a Basis.create. *)
  let bfactor =
    if keep_factor then Atomic.make (Some (Basis.snapshot st.bas))
    else Atomic.make None
  in
  Some
    {
      bn = st.sp.Sparse.n;
      bnv = st.sp.Sparse.nv;
      bstat = Array.copy st.stat;
      bbcols = Array.copy st.bcols;
      bfactor;
    }

let finish_optimal ?keep_factor (prep : prepared) st =
  let values = Array.sub st.x 0 st.sp.Sparse.nv in
  let _, obj = Model.objective prep.pmodel in
  (Optimal { obj = Linexpr.eval values obj; values }, extract_basis ?keep_factor st)

let cold_solve ?keep_factor prep ~rhs bounds ~max_iters ~degen_limit =
  let st = cold_state prep ~rhs bounds ~max_iters ~degen_limit in
  let rec go () =
    match run_primal st ~phase1:true with
    | `Iters -> (Iter_limit, None)
    | `Still_infeasible | `Optimal | `Unbounded | `Lost_feas ->
      (Infeasible, None)
    | `Feasible -> (
      match run_primal st ~phase1:false with
      | `Optimal -> finish_optimal ?keep_factor prep st
      | `Lost_feas ->
        (* restore feasibility with another phase 1 on the remaining
           budget (Lost_feas implies at least one pivot was spent, so
           this terminates) *)
        if st.iters > 0 then go () else (Iter_limit, None)
      | `Unbounded -> (Unbounded, None)
      | `Iters -> (Iter_limit, None)
      | `Feasible | `Still_infeasible -> assert false)
  in
  go ()

let default_iters sp = (50 * (sp.Sparse.m + sp.Sparse.n)) + 200

let of_dense = function
  | Dense_simplex.Optimal { obj; values } -> Optimal { obj; values }
  | Dense_simplex.Infeasible -> Infeasible
  | Dense_simplex.Unbounded -> Unbounded
  | Dense_simplex.Iter_limit -> Iter_limit

let solve_prepared ?(engine = Revised) ?lb ?ub ?b ?max_iters ?degen_limit ?warm
    ?keep_factor (prep : prepared) =
  (match b with
  | Some rhs when Array.length rhs <> prep.sp.Sparse.m ->
    invalid_arg "Simplex.solve_prepared: rhs overlay length <> rows"
  | Some _ when engine = Dense ->
    invalid_arg "Simplex.solve_prepared: rhs overlay needs the revised engine"
  | _ -> ());
  match engine with
  | Dense -> (of_dense (Dense_simplex.solve ?lb ?ub ?max_iters prep.pmodel), None)
  | Revised -> (
    let sp = prep.sp in
    let rhs = match b with Some rhs -> rhs | None -> sp.Sparse.b in
    let max_iters = match max_iters with Some k -> k | None -> default_iters sp in
    let degen_limit =
      match degen_limit with
      | Some k -> k
      | None -> max 50 (sp.Sparse.m + sp.Sparse.n)
    in
    try
      let bounds = fresh_bounds prep ?lb ?ub () in
      let cold iters =
        try cold_solve ?keep_factor prep ~rhs bounds ~max_iters:iters ~degen_limit
        with Basis.Singular _ when b = None ->
          (* pathological basis beyond slack repair: degrade to the
             dense tableau rather than crash the solve. With a rhs
             overlay the dense engine would solve the wrong rhs, so
             Singular propagates to the caller instead. *)
          (of_dense (Dense_simplex.solve ?lb ?ub ~max_iters prep.pmodel), None)
      in
      let warm =
        match warm with
        | Some b when b.bn = sp.Sparse.n && b.bnv = sp.Sparse.nv -> Some b
        | _ -> None
      in
      match warm with
      | None -> cold max_iters
      | Some wb -> (
        Lp_stats.incr Lp_stats.warm_attempts;
        let attempt =
          try
            let st = warm_state prep ~rhs bounds wb ~max_iters ~degen_limit in
            if not (dual_feasible st (reduced_costs st)) then
              `Cold max_iters
            else begin
              match run_dual st with
              | `Optimal ->
                (* a mid-solve repair/refactorization can perturb the
                   reduced costs; only trust a basis the dual simplex
                   left dual feasible, otherwise its bound may be
                   understated *)
                if dual_feasible st (reduced_costs st) then
                  `Done (finish_optimal ?keep_factor prep st)
                else `Cold (max 1 st.iters)
              | `Infeasible ->
                (* dual unboundedness proves primal infeasibility only
                   from a dual-feasible basis *)
                if dual_feasible st (reduced_costs st) then
                  `Done (Infeasible, None)
                else `Cold (max 1 st.iters)
              | `Numerical | `Iters ->
                (* fall back to a cold solve on the remaining budget *)
                `Cold (max 1 st.iters)
            end
          with Basis.Singular _ -> `Cold max_iters
        in
        match attempt with
        | `Done r ->
          Lp_stats.incr Lp_stats.warm_hits;
          r
        | `Cold iters -> cold iters)
    with Box_infeasible -> (Infeasible, None))

let solve ?engine ?lb ?ub ?max_iters model =
  fst (solve_prepared ?engine ?lb ?ub ?max_iters (prepare model))
