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
   pivots. A bound overlay that widens a boxed nonbasic column's range
   can leave its reduced cost on the wrong side; the warm path flips
   such columns to their other bound first. Any numerical trouble in
   the warm path, or a violation no flip repairs, falls back to the
   cold primal within the same iteration budget.

   A dual pivot makes one sweep over the factors: the duals y and the
   pivot row come from one fused BTRAN (Basis.btran2), and only the
   columns that pass the ratio test's pivot and sign tests are priced,
   d_j = c_j - a_j . y. The full reduced-cost vector is built only for
   the warm dual-feasibility check, which also serves the first dual
   pivot, and for the final check.

   No pivot allocates a vector: every FTRAN and BTRAN writes into one
   workspace ([work]) that the solve's state allocates once and its
   pivots reuse, and the basis keeps its own work arrays. *)

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

(* [plb]/[pub]: the model's variable bounds, read once by [prepare];
   every solve without an override starts from them *)
type prepared = { pmodel : Model.t; sp : Sparse.t; plb : float array; pub : float array }

let eps_cost = 1e-9
let eps_pivot = 1e-9
let eps_feas = 1e-7
let eps_dual = 1e-6
let eps_degen = 1e-10

let prepare model =
  let plb, pub = Model.bounds model in
  { pmodel = model; sp = Sparse.of_model model; plb; pub }

let prep_sparse prep = prep.sp

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

(* The vectors one solve's pivots reuse, allocated once by
   [start_state]; each has length m except [d] (length n). Ownership:
   a pivot fills [cb], [er], [y], [rho], [col] and [w] and reads them
   until its [basis_exchange]. [compute_xb] runs inside that exchange
   after a refactorization, while the pivot's [w] is still in hand, so
   it writes only its own [resid] and [xb]. [er] is all zeros between
   pivots. [d] is the reduced-cost cache [st.dj] points at; a refill
   happens only after [basis_exchange] has cleared [st.dj]. *)
type work = {
  cb : float array; (* c_B by position *)
  er : float array; (* the unit vector e_r of the leaving row *)
  y : float array; (* duals B^-T c_B *)
  rho : float array; (* pivot row B^-T e_r *)
  col : float array; (* entering column, dense by row *)
  w : float array; (* its FTRAN image, by position *)
  d : float array; (* reduced costs of every column *)
  resid : float array; (* b - A_N x_N *)
  xb : float array; (* basic values by position *)
}

(* The sizes the unchecked loops below ([compute_xb], [reduced_costs],
   [run_dual]) rely on: [lo] and [hi] ([fresh_bounds]), [x] and [stat]
   are [n] long ([stat] copies a warm basis' statuses only when its
   shape matches) and the [work] vectors as above; [bcols] holds [m]
   columns below [n], since [Basis.create] and [Basis.replace] refuse
   any other and a repair swaps in slack columns [nv + i]; and [sp]'s
   [colptr] has [n + 1] offsets into [rowind] and [values], whose row
   indices are below [m] (Sparse.of_model). *)
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
  wk : work;
}

exception Box_infeasible

let fresh_bounds (prep : prepared) ?lb ?ub () =
  let sp = prep.sp in
  let nv = sp.Sparse.nv and m = sp.Sparse.m and n = sp.Sparse.n in
  let lb = Option.value lb ~default:prep.plb and ub = Option.value ub ~default:prep.pub in
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

(* a_j . v, summed in Sparse.col_dot's order and read unchecked:
   callers pass [j < n] and a [v] of [m] entries (sizes: see [st]) *)
let col_dot sp j v =
  let { Sparse.colptr; rowind; values; _ } = sp in
  let acc = ref 0. in
  for k = Array.unsafe_get colptr j to Array.unsafe_get colptr (j + 1) - 1 do
    acc := !acc +. (Array.unsafe_get values k *. Array.unsafe_get v (Array.unsafe_get rowind k))
  done;
  !acc

(* Recompute basic values from scratch: x_B = B^-1 (b - A_N x_N).
   Called after every refactorization to shed accumulated drift. The
   loops read unchecked (sizes: see [st]). *)
let compute_xb st =
  let sp = st.sp in
  let m = sp.Sparse.m in
  if m > 0 then begin
    let rhs = st.wk.resid and xb = st.wk.xb and stat = st.stat and x = st.x in
    Array.blit st.rhs 0 rhs 0 m;
    for j = 0 to sp.Sparse.n - 1 do
      let xj = Array.unsafe_get x j in
      if Array.unsafe_get stat j <> Basic && xj <> 0. then Sparse.axpy_col sp j (-.xj) rhs
    done;
    Basis.ftran st.bas rhs ~out:xb;
    for r = 0 to m - 1 do
      Array.unsafe_set x (Array.unsafe_get st.bcols r) (Array.unsafe_get xb r)
    done
  end

let nonbasic_value st j =
  match st.stat.(j) with
  | At_lower -> st.lo.(j)
  | At_upper -> st.hi.(j)
  | At_zero -> 0.
  | Basic -> st.x.(j)

(* Where a nonbasic column rests by default: at a finite bound (the
   lower one first), or at 0 if it is free. *)
let resting st j =
  if Float.is_finite st.lo.(j) then At_lower
  else if Float.is_finite st.hi.(j) then At_upper
  else At_zero

(* A start state on the factorized basis [bas]: exactly its columns are
   basic (a repaired factorization may have swapped some in), and every
   nonbasic column keeps its status in [stat] while that status names a
   finite bound (or 0 inside the bounds), else rests by default. *)
let start_state (prep : prepared) ~rhs (lo, hi) stat bas ~max_iters ~degen_limit =
  let m = prep.sp.Sparse.m and n = prep.sp.Sparse.n in
  let vec () = Array.make m 0. in
  let wk =
    { cb = vec (); er = vec (); y = vec (); rho = vec (); col = vec (); w = vec ();
      d = Array.make n 0.; resid = vec (); xb = vec () }
  in
  let st =
    { sp = prep.sp; rhs; lo; hi; x = Array.make n 0.; stat; bcols = Basis.bcols bas;
      bas; bland = false; degen = 0; degen_limit; iters = max_iters; dj = None; wk }
  in
  Array.iteri (fun j s -> if s = Basic then stat.(j) <- At_lower) stat;
  Array.iter (fun j -> stat.(j) <- Basic) st.bcols;
  for j = 0 to n - 1 do
    (match stat.(j) with
    | At_lower when not (Float.is_finite lo.(j)) -> stat.(j) <- resting st j
    | At_upper when not (Float.is_finite hi.(j)) -> stat.(j) <- resting st j
    | At_zero when lo.(j) > 0. -> stat.(j) <- At_lower
    | At_zero when hi.(j) < 0. -> stat.(j) <- At_upper
    | Basic | At_lower | At_upper | At_zero -> ());
    if stat.(j) <> Basic then st.x.(j) <- nonbasic_value st j
  done;
  compute_xb st;
  st

(* Cold state: the all-slack basis, every structural column at lower. *)
let cold_state (prep : prepared) ~rhs bounds ~max_iters ~degen_limit =
  let sp = prep.sp in
  let nv = sp.Sparse.nv in
  start_state prep ~rhs bounds (Array.make sp.Sparse.n At_lower)
    (Basis.create sp (Array.init sp.Sparse.m (fun i -> nv + i)))
    ~max_iters ~degen_limit

(* Warm state from a caller-provided basis: re-install its statuses on
   its factorization. *)
let warm_state (prep : prepared) ~rhs bounds (b : basis) ~max_iters ~degen_limit =
  let sp = prep.sp in
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
  start_state prep ~rhs bounds (Array.copy b.bstat) bas ~max_iters ~degen_limit

(* ------------------------------------------------------------------ *)
(* Shared pivot machinery                                              *)

let track_degeneracy st theta =
  if Float.abs theta > eps_degen then st.degen <- 0
  else begin
    st.degen <- st.degen + 1;
    if st.degen > st.degen_limit then st.bland <- true
  end

(* The FTRAN image of column [j], in [st.wk.w]. *)
let ftran_column st j =
  let { col; w; _ } = st.wk in
  Array.fill col 0 (Array.length col) 0.;
  Sparse.axpy_col st.sp j 1. col;
  Basis.ftran st.bas col ~out:w;
  w

(* A refactorization may repair a singular basis by swapping slack
   columns into some positions (see Basis.build_lu). Reconcile
   [st.bcols]/[st.stat] with the basis' actual column set — the same
   way [start_state] does — so [compute_xb] writes basic values to the
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
          st.stat.(j) <- resting st j;
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
  let { cb; y; _ } = st.wk in
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
        Basis.btran st.bas cb ~out:y;
        (* pricing: d_j = c_j - y . a_j over nonbasic columns *)
        let best = ref (-1) and best_score = ref eps_cost and best_dir = ref 1. in
        (try
           for j = 0 to n - 1 do
             if st.stat.(j) <> Basic then begin
               let cj = if phase1 then 0. else sp.Sparse.cost.(j) in
               let d = cj -. col_dot sp j y in
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
          let w = ftran_column st j in
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

(* c_B: the real-objective cost of each basic column, by position. *)
let fill_basic_costs st cb =
  for r = 0 to st.sp.Sparse.m - 1 do
    cb.(r) <- st.sp.Sparse.cost.(st.bcols.(r))
  done

(* The reduced cost d_j = c_j - a_j . y of column [j], from the duals
   [y] = B^-T c_B. Every dual-side reduced cost is priced by this one
   expression, so a cached d_j and one priced on demand have the same
   bits. *)
let reduced_cost sp y j = sp.Sparse.cost.(j) -. col_dot sp j y

(* Reduced costs of all columns, cached per basis. The warm path's
   dual-feasibility check fills the cache, its first dual pivot reads
   it, and the final check reuses it when the solve made no pivot.
   Later dual pivots price only their ratio-test candidates. The loop
   reads and writes unchecked (sizes: see [st]). *)
let reduced_costs st =
  match st.dj with
  | Some d -> d
  | None ->
    let sp = st.sp and { cb; y; d; _ } = st.wk and stat = st.stat in
    fill_basic_costs st cb;
    Basis.btran st.bas cb ~out:y;
    for j = 0 to sp.Sparse.n - 1 do
      Array.unsafe_set d j
        (if Array.unsafe_get stat j = Basic then 0. else reduced_cost sp y j)
    done;
    st.dj <- Some d;
    d

let dual_feasible st d =
  let { stat; lo; hi; _ } = st in
  let ok = ref true and j = ref 0 in
  while !ok && !j < Array.length stat do
    let j' = !j in
    (if hi.(j') -. lo.(j') > 1e-12 then
       match stat.(j') with
       | At_lower -> if d.(j') < -.eps_dual then ok := false
       | At_upper -> if d.(j') > eps_dual then ok := false
       | At_zero -> if Float.abs d.(j') > eps_dual then ok := false
       | Basic -> ());
    incr j
  done;
  !ok

(* Make a warm start dual feasible by bound flips (as in Koberstein's
   dual simplex, Paderborn 2005): a nonbasic column whose reduced cost
   has the wrong sign for the bound it rests at, and whose range is
   finite, moves to its other bound, where that sign is the right one. A flip moves no column in or
   out of the basis, so the reduced costs stand; only x_B moves, and it
   is recomputed once for all flips. This is the case of a bound overlay
   that widens a column's range, as a batched scenario opening a path
   the base had closed: the column rested at its upper bound 0, which
   is now its lower one. Answers [false], with nothing changed, when
   some violation cannot be flipped: its other bound is infinite or it
   rests at 0 as a free column. With no violation it flips nothing and
   answers [true], exactly where [dual_feasible] does. *)
let flip_to_dual_feasible st d =
  let flips = ref [] and flippable = ref true in
  Array.iteri
    (fun j s ->
      if !flippable && s <> Basic && st.hi.(j) -. st.lo.(j) > 1e-12 then
        match s with
        | At_lower when d.(j) < -.eps_dual ->
          if Float.is_finite st.hi.(j) then flips := j :: !flips else flippable := false
        | At_upper when d.(j) > eps_dual ->
          if Float.is_finite st.lo.(j) then flips := j :: !flips else flippable := false
        | At_zero when Float.abs d.(j) > eps_dual -> flippable := false
        | Basic | At_lower | At_upper | At_zero -> ())
    st.stat;
  if !flippable && !flips <> [] then begin
    List.iter
      (fun j ->
        st.stat.(j) <- (if st.stat.(j) = At_lower then At_upper else At_lower);
        st.x.(j) <- nonbasic_value st j)
      !flips;
    compute_xb st
  end;
  !flippable

(* Dual simplex loop: repair primal feasibility while keeping dual
   feasibility. Assumes the caller verified dual feasibility. [watch],
   when given, sees the state at the head of every iteration, so before
   the first pivot and after each one; it may end the run by raising. *)
let run_dual ?watch st =
  let sp = st.sp in
  let m = sp.Sparse.m and n = sp.Sparse.n in
  let { cb; er; y; rho; _ } = st.wk in
  (* the leaving scan, the pivot-row ratio loop and the basic-value
     update read unchecked (sizes: see [st]) *)
  let { x; lo; hi; stat; bcols; _ } = st in
  let { Sparse.colptr; rowind; values; _ } = sp in
  let rec loop () =
    (match watch with Some f -> f () | None -> ());
    if st.iters <= 0 then `Iters
    else begin
      (* leaving: the most violated basic variable *)
      let r = ref (-1) and viol = ref eps_feas and below = ref false in
      for i = 0 to m - 1 do
        let b = Array.unsafe_get bcols i in
        let xb = Array.unsafe_get x b and lob = Array.unsafe_get lo b in
        if lob -. xb > !viol then begin
          viol := lob -. xb;
          r := i;
          below := true
        end
        else begin
          let hib = Array.unsafe_get hi b in
          if xb -. hib > !viol then begin
            viol := xb -. hib;
            r := i;
            below := false
          end
        end
      done;
      if !r < 0 then `Optimal
      else begin
        let r = !r and below = !below in
        (* the pivot row rho = B^-T e_r, and the reduced cost d_j of a
           ratio-test candidate: cached for the basis, or priced on
           demand from y = B^-T c_B, which one sweep over the factors
           yields together with rho *)
        let cached = st.dj in
        er.(r) <- 1.;
        (match cached with
        | Some _ -> Basis.btran st.bas er ~out:rho
        | None ->
          fill_basic_costs st cb;
          Basis.btran2 st.bas cb er ~out1:y ~out2:rho);
        er.(r) <- 0.;
        (* dual ratio test over the pivot row alpha_j = rho . a_j *)
        let bestj = ref (-1)
        and best_d = ref 0.
        and best_ratio = ref Float.infinity
        and best_mag = ref 0. in
        for j = 0 to n - 1 do
          let sj = Array.unsafe_get stat j in
          if sj <> Basic && Array.unsafe_get hi j -. Array.unsafe_get lo j > 1e-12 then begin
            (* alpha_j = rho . a_j, summed as [col_dot] sums, written
               inline: this loop runs over every column of every pivot
               row *)
            let alpha = ref 0. in
            for k = Array.unsafe_get colptr j to Array.unsafe_get colptr (j + 1) - 1 do
              alpha :=
                !alpha
                +. (Array.unsafe_get values k *. Array.unsafe_get rho (Array.unsafe_get rowind k))
            done;
            let alpha = !alpha in
            if Float.abs alpha > eps_pivot then begin
              let eligible =
                match (sj, below) with
                | At_lower, true -> alpha < 0.
                | At_lower, false -> alpha > 0.
                | At_upper, true -> alpha > 0.
                | At_upper, false -> alpha < 0.
                | At_zero, _ -> true
                | Basic, _ -> false
              in
              if eligible then begin
                let d =
                  match cached with
                  | Some d -> Array.unsafe_get d j
                  | None -> reduced_cost sp y j
                in
                let ratio = Float.abs d /. Float.abs alpha in
                if st.bland then begin
                  (* Bland mode still needs the min-ratio test (a
                     non-min-ratio dual pivot breaks dual feasibility);
                     the scan runs in column order, so taking only
                     strict improvements keeps the lowest index among
                     ratio ties *)
                  if ratio < !best_ratio -. 1e-12 then begin
                    bestj := j;
                    best_d := d;
                    best_ratio := ratio;
                    best_mag := Float.abs alpha
                  end
                end
                else if
                  ratio < !best_ratio -. 1e-12
                  || (ratio < !best_ratio +. 1e-12 && Float.abs alpha > !best_mag)
                then begin
                  bestj := j;
                  best_d := d;
                  best_ratio := ratio;
                  best_mag := Float.abs alpha
                end
              end
            end
          end
        done;
        if !bestj < 0 then `Infeasible (* dual unbounded *)
        else begin
          let q = !bestj in
          let w = ftran_column st q in
          if Float.abs w.(r) < 1e-9 then `Numerical
          else begin
            let out = st.bcols.(r) in
            let bound = if below then st.lo.(out) else st.hi.(out) in
            let t = (st.x.(out) -. bound) /. w.(r) in
            for i = 0 to m - 1 do
              let b = Array.unsafe_get bcols i in
              Array.unsafe_set x b (Array.unsafe_get x b -. (t *. Array.unsafe_get w i))
            done;
            st.x.(q) <- st.x.(q) +. t;
            st.x.(out) <- bound;
            st.stat.(out) <- (if below then At_lower else At_upper);
            track_degeneracy st (Float.abs !best_d);
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
     A basis shared by several later solves then carries its
     factorization from birth: every sharer reinstates it without
     factorizing (Basis.of_snapshot). *)
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
let default_degen sp = max 50 (sp.Sparse.m + sp.Sparse.n)

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
      | None -> default_degen sp
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
            if not (flip_to_dual_feasible st (reduced_costs st)) then
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

(* ------------------------------------------------------------------ *)
(* Refutation                                                          *)

exception Refuted

(* How far below [cutoff] a refutation must prove the LP bound to sit:
   room for the rounding by which a cold solve of the same LP may land
   above the warm dual bound. *)
let refute_margin cutoff = 1e-9 *. Float.max 1. (Float.abs cutoff)

(* What the reduced costs [d] of the current basis fall short of dual
   feasibility by, charged over each column's range: a nonbasic d_j
   whose sign lets its column improve the cost, within [eps_dual] or
   grown along the dual path (the ratio test reads |d_j|), lowers the
   LP minimum below c'x by at most |d_j| (hi_j - lo_j). On an unbounded
   range that is no bound at all, unless |d_j| is rounding noise: at
   most [eps_degen], the size below which a dual pivot's reduced cost
   counts as zero ([track_degeneracy]). An [At_zero] column is charged
   over its whole range, which covers either side of 0. *)
let dual_slip st d =
  let charge dj range =
    if range < Float.infinity then dj *. range
    else if dj > eps_degen then Float.infinity
    else 0.
  in
  let slip = ref 0. in
  Array.iteri
    (fun j s ->
      let range = st.hi.(j) -. st.lo.(j) in
      match s with
      | At_lower -> if d.(j) < 0. then slip := !slip +. charge (-.d.(j)) range
      | At_upper -> if d.(j) > 0. then slip := !slip +. charge d.(j) range
      | At_zero -> slip := !slip +. charge (Float.abs d.(j)) range
      | Basic -> ())
    st.stat;
  !slip

(* Weak duality on the dual simplex's path: for every point x' of the
   LP, c'x' - c'x = Σ_nonbasic d_j (x'_j - x_j) (basics priced at 0,
   A x = b), so c'x less [dual_slip] bounds the LP minimum from below,
   from any basis. On a dual-feasible path the slip is nil or tiny and
   c'x only rises from pivot to pivot, so the cheap c'x is watched at
   every iterate, and only once it reaches [floor] — the cost at
   [refute_margin] below [cutoff] — are the reduced costs priced in
   full and the slip charged before the run stops. *)
let refute ?max_iters ~warm ~lb ~ub ~cutoff (prep : prepared) =
  let sp = prep.sp in
  if warm.bn <> sp.Sparse.n || warm.bnv <> sp.Sparse.nv then false
  else begin
    let sense, obj = Model.objective prep.pmodel in
    (* the internal cost is -osign times the objective's coefficients,
       so osign * objective = osign * constant - c'x *)
    let osign = match sense with Model.Maximize -> 1. | Model.Minimize -> -1. in
    let floor = (osign *. Linexpr.constant obj) -. (cutoff -. refute_margin cutoff) in
    let max_iters = match max_iters with Some k -> k | None -> default_iters sp in
    let degen_limit = default_degen sp in
    try
      let bounds = fresh_bounds prep ~lb ~ub () in
      let st = warm_state prep ~rhs:sp.Sparse.b bounds warm ~max_iters ~degen_limit in
      dual_feasible st (reduced_costs st)
      && begin
           let watch () =
             let z = ref 0. in
             for j = 0 to sp.Sparse.n - 1 do
               z := !z +. (sp.Sparse.cost.(j) *. st.x.(j))
             done;
             (* [reduced_costs] caches for the basis, and the cached
                d_j have the bits the next ratio test would price *)
             if !z >= floor && !z -. dual_slip st (reduced_costs st) >= floor then
               raise Refuted
           in
           ignore (run_dual ~watch st);
           false
         end
    with
    | Refuted -> true
    | Box_infeasible | Basis.Singular _ -> false
  end

let solve ?engine ?lb ?ub ?max_iters model =
  fst (solve_prepared ?engine ?lb ?ub ?max_iters (prepare model))
