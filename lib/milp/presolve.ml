(* Iterated fixpoint of primal presolve reductions. See the .mli for the
   catalogue. Implementation notes:

   - Rows are normalized to [sum a_j x_j <= rhs] (Ge rows negated) or
     [= rhs]. Coefficients are mutable only for coefficient tightening;
     removal is a tombstone flag.
   - Fixing a variable just collapses its bounds (lb = ub = v): activity
     computations then account for it automatically, and the actual
     substitution happens once, when the reduced model is rebuilt. This
     keeps mid-pass state consistent — a fix never edits a row that is
     currently being swept.
   - Within one row sweep the activity bounds are computed once and go
     stale as bounds tighten. Stale activities were computed from looser
     bounds, so every deduction drawn from them is valid, merely weaker;
     the fixpoint loop recovers the rest.
   - Tolerances are asymmetric by design: declaring infeasibility or
     fixing a variable uses a generous 1e-6-scaled tolerance (matching
     the solver's feasibility/integrality tolerance), while redundancy
     and forcing detection use a tight 1e-9 so a row is only dropped when
     the box genuinely pins it. Continuous bounds are tightened with a
     tiny outward slack and integer bounds are rounded outward, so the
     reduced feasible set never loses a point of the original one. *)

type stats = {
  passes : int;
  rows_removed : int;
  cols_fixed : int;
  bounds_tightened : int;
  big_ms_tightened : int;
  probed : int;
  probe_fixed : int;
}

type result =
  | Reduced of { model : Model.t; post : Postsolve.t; stats : stats }
  | Infeasible of stats

exception Infeasible_model
exception Probe_infeasible

type row = {
  rname : string;
  eq : bool; (* true: [= rhs]; false: [<= rhs] *)
  rvars : int array;
  coefs : float array;
  mutable rhs : float;
  mutable alive : bool;
}

type state = {
  nv : int;
  kind : Model.var_kind array;
  lb : float array;
  ub : float array;
  is_fixed : bool array;
  fixval : float array;
  rows : row array;
  mutable n_rows_removed : int;
  mutable n_cols_fixed : int;
  mutable n_bounds : int;
  mutable n_bigm : int;
  mutable changed : bool;
}

let is_int_kind = function Model.Continuous -> false | Model.Binary | Model.Integer -> true

(* Minimum/maximum possible row activity over the bound box, as a finite
   part plus a count of infinite contributions (so the activity without
   one term is recoverable even when that term is the sole infinity). *)
let activities lb ub r =
  let mn = ref 0. and mn_inf = ref 0 and mx = ref 0. and mx_inf = ref 0 in
  Array.iteri
    (fun k id ->
      let a = r.coefs.(k) in
      if a <> 0. then begin
        let l = lb.(id) and u = ub.(id) in
        if a > 0. then begin
          if l = Float.neg_infinity then incr mn_inf else mn := !mn +. (a *. l);
          if u = Float.infinity then incr mx_inf else mx := !mx +. (a *. u)
        end
        else begin
          if u = Float.infinity then incr mn_inf else mn := !mn +. (a *. u);
          if l = Float.neg_infinity then incr mx_inf else mx := !mx +. (a *. l)
        end
      end)
    r.rvars;
  (!mn, !mn_inf, !mx, !mx_inf)

(* Generic bound updates over explicit arrays (shared between the main
   fixpoint and probing). Integer bounds round outward; continuous bounds
   get a relative outward slack and only move on a material improvement,
   so epsilon nudges cannot keep the fixpoint spinning. Raises [infeas]
   when the domain empties. Returns whether the bound moved. *)
let gen_tighten_ub kind lb ub j v ~infeas =
  let isint = is_int_kind kind.(j) in
  let v = if isint then Float.floor (v +. 1e-6) else v +. (1e-9 *. (1. +. Float.abs v)) in
  let improves =
    if ub.(j) = Float.infinity then v < Float.infinity
    else if isint then v <= ub.(j) -. 0.5
    else ub.(j) -. v > 1e-7 *. (1. +. Float.abs ub.(j))
  in
  if improves then begin
    if v < lb.(j) -. (1e-6 *. (1. +. Float.abs v)) then raise infeas;
    ub.(j) <- Float.max v lb.(j);
    true
  end
  else false

let gen_tighten_lb kind lb ub j v ~infeas =
  let isint = is_int_kind kind.(j) in
  let v = if isint then Float.ceil (v -. 1e-6) else v -. (1e-9 *. (1. +. Float.abs v)) in
  let improves =
    if lb.(j) = Float.neg_infinity then v > Float.neg_infinity
    else if isint then v >= lb.(j) +. 0.5
    else v -. lb.(j) > 1e-7 *. (1. +. Float.abs lb.(j))
  in
  if improves then begin
    if v > ub.(j) +. (1e-6 *. (1. +. Float.abs v)) then raise infeas;
    lb.(j) <- Float.min v ub.(j);
    true
  end
  else false

let fix st j v =
  if st.is_fixed.(j) then begin
    if Float.abs (v -. st.fixval.(j)) > 1e-6 *. (1. +. Float.abs v) then
      raise Infeasible_model
  end
  else begin
    let tol = 1e-6 *. (1. +. Float.abs v) in
    if v < st.lb.(j) -. tol || v > st.ub.(j) +. tol then raise Infeasible_model;
    let v =
      if is_int_kind st.kind.(j) then begin
        let r = Float.round v in
        if Float.abs (v -. r) > 1e-6 then raise Infeasible_model;
        r
      end
      else Float.min (Float.max v st.lb.(j)) st.ub.(j)
    in
    st.is_fixed.(j) <- true;
    st.fixval.(j) <- v;
    st.lb.(j) <- v;
    st.ub.(j) <- v;
    st.n_cols_fixed <- st.n_cols_fixed + 1;
    st.changed <- true
  end

let tighten_ub st j v =
  if (not st.is_fixed.(j))
     && gen_tighten_ub st.kind st.lb st.ub j v ~infeas:Infeasible_model
  then begin
    st.n_bounds <- st.n_bounds + 1;
    st.changed <- true;
    if
      Float.is_finite st.lb.(j)
      && st.ub.(j) -. st.lb.(j) <= 1e-9 *. (1. +. Float.abs st.lb.(j))
    then fix st j st.lb.(j)
  end

let tighten_lb st j v =
  if (not st.is_fixed.(j))
     && gen_tighten_lb st.kind st.lb st.ub j v ~infeas:Infeasible_model
  then begin
    st.n_bounds <- st.n_bounds + 1;
    st.changed <- true;
    if
      Float.is_finite st.lb.(j)
      && st.ub.(j) -. st.lb.(j) <= 1e-9 *. (1. +. Float.abs st.lb.(j))
    then fix st j st.lb.(j)
  end

let kill_row st r =
  if r.alive then begin
    r.alive <- false;
    st.n_rows_removed <- st.n_rows_removed + 1;
    st.changed <- true
  end

(* Coefficient tightening on [<=] rows with {0,1} variables — the big-M
   reduction. For a binary b with coefficient a > 0 in [R + a b <= rhs],
   let Mr = max activity of R. If Mr <= rhs the row is redundant in the
   b = 0 branch, and the equivalent row [R + (Mr + a - rhs) b <= Mr] has
   the same integer feasible set with a strictly tighter LP relaxation:
   for an implication gadget [e + (ub - k) b <= ub] this rewrites the
   blanket M = ub - k to the minimal M = max(e) - k. Symmetrically for
   a < 0 when the row is redundant in the b = 1 branch. At most one
   application per row per pass, since the activities go stale. *)
let coefficient_tighten st r mx mx_inf =
  if r.eq || mx_inf > 0 then false
  else begin
    let applied = ref false in
    let n = Array.length r.rvars in
    let k = ref 0 in
    while (not !applied) && !k < n do
      let a = r.coefs.(!k) and j = r.rvars.(!k) in
      if
        a <> 0.
        && (not st.is_fixed.(j))
        && is_int_kind st.kind.(j)
        && st.lb.(j) = 0.
        && st.ub.(j) = 1.
      then begin
        let itol = 1e-7 *. (1. +. Float.abs a) in
        if a > 0. then begin
          let mr = mx -. a in
          (* binary contributes a to mx *)
          if mr <= r.rhs && mx > r.rhs +. itol then begin
            let a' = mx -. r.rhs in
            if a' < a -. itol then begin
              r.coefs.(!k) <- a';
              r.rhs <- mr;
              applied := true
            end
          end
        end
        else begin
          let mr = mx in
          (* binary contributes 0 to mx *)
          if mr <= r.rhs -. a && mr > r.rhs +. itol then begin
            let a' = r.rhs -. mr in
            if a' > a +. itol then begin
              r.coefs.(!k) <- a';
              applied := true
            end
          end
        end
      end;
      incr k
    done;
    if !applied then begin
      st.n_bigm <- st.n_bigm + 1;
      st.changed <- true
    end;
    !applied
  end

(* Implied per-variable bounds from one row's activity residuals. *)
let propagate_row st r mn mn_inf mx mx_inf =
  Array.iteri
    (fun k j ->
      let a = r.coefs.(k) in
      if a <> 0. && not st.is_fixed.(j) then begin
        let l = st.lb.(j) and u = st.ub.(j) in
        (* <= direction: a x_j <= rhs - min(rest) *)
        let cmin_inf = if a > 0. then l = Float.neg_infinity else u = Float.infinity in
        let rest_known = if cmin_inf then mn_inf = 1 else mn_inf = 0 in
        if rest_known then begin
          let cmin = if cmin_inf then 0. else if a > 0. then a *. l else a *. u in
          let rest = if cmin_inf then mn else mn -. cmin in
          let cap = (r.rhs -. rest) /. a in
          if a > 0. then tighten_ub st j cap else tighten_lb st j cap
        end;
        (* equalities also bound from below: a x_j >= rhs - max(rest) *)
        if r.eq then begin
          let cmax_inf = if a > 0. then u = Float.infinity else l = Float.neg_infinity in
          let rest_known = if cmax_inf then mx_inf = 1 else mx_inf = 0 in
          if rest_known then begin
            let cmax = if cmax_inf then 0. else if a > 0. then a *. u else a *. l in
            let rest = if cmax_inf then mx else mx -. cmax in
            let low = (r.rhs -. rest) /. a in
            if a > 0. then tighten_lb st j low else tighten_ub st j low
          end
        end
      end)
    r.rvars

let process_row st r =
  if r.alive then begin
    let mn, mn_inf, mx, mx_inf = activities st.lb st.ub r in
    let scale =
      1. +. Float.abs r.rhs
      +. Float.max (if mn_inf = 0 then Float.abs mn else 0.) (if mx_inf = 0 then Float.abs mx else 0.)
    in
    let ftol = 1e-6 *. scale in
    let eps = 1e-9 *. scale in
    if mn_inf = 0 && mn > r.rhs +. ftol then raise Infeasible_model;
    if r.eq && mx_inf = 0 && mx < r.rhs -. ftol then raise Infeasible_model;
    let n_live = ref 0 and last_live = ref (-1) in
    Array.iteri
      (fun k id ->
        if r.coefs.(k) <> 0. && not st.is_fixed.(id) then begin
          incr n_live;
          last_live := k
        end)
      r.rvars;
    if !n_live = 0 then kill_row st r
    else if (not r.eq) && mx_inf = 0 && mx <= r.rhs +. eps then
      (* redundant: satisfied everywhere in the box *)
      kill_row st r
    else if !n_live = 1 then begin
      (* singleton row: convert to a bound (Le) or a fixing (Eq) *)
      let k = !last_live in
      let j = r.rvars.(k) and a = r.coefs.(k) in
      let fc = ref 0. in
      Array.iteri
        (fun k' id ->
          if k' <> k && r.coefs.(k') <> 0. then
            fc := !fc +. (r.coefs.(k') *. st.fixval.(id)))
        r.rvars;
      let b = (r.rhs -. !fc) /. a in
      if r.eq then fix st j b
      else if a > 0. then tighten_ub st j b
      else tighten_lb st j b;
      kill_row st r
    end
    else if mn_inf = 0 && mn >= r.rhs -. eps then begin
      (* forcing: the activity is pinned at its minimum (for an equality
         this is the min-side case; feasible by the checks above) *)
      Array.iteri
        (fun k id ->
          let a = r.coefs.(k) in
          if a <> 0. && not st.is_fixed.(id) then
            fix st id (if a > 0. then st.lb.(id) else st.ub.(id)))
        r.rvars;
      kill_row st r
    end
    else if r.eq && mx_inf = 0 && mx <= r.rhs +. eps then begin
      (* forcing from above: activity pinned at its maximum *)
      Array.iteri
        (fun k id ->
          let a = r.coefs.(k) in
          if a <> 0. && not st.is_fixed.(id) then
            fix st id (if a > 0. then st.ub.(id) else st.lb.(id)))
        r.rvars;
      kill_row st r
    end
    else if not (coefficient_tighten st r mx mx_inf) then
      propagate_row st r mn mn_inf mx mx_inf
  end

(* bound on fixpoint iterations per propagation phase *)
let max_passes = 20

(* bound on the number of binaries probed *)
let probe_limit = 512

let fixpoint st =
  let n = ref 0 in
  let continue_ = ref true in
  while !continue_ && !n < max_passes do
    incr n;
    st.changed <- false;
    Array.iter (process_row st) st.rows;
    if not st.changed then continue_ := false
  done;
  !n

(* Pure bound propagation over cloned bound arrays: evaluates a probe
   branch without touching the shared state. *)
let probe_propagate st lb ub ~rounds =
  let changed = ref true in
  let round = ref 0 in
  while !changed && !round < rounds do
    incr round;
    changed := false;
    Array.iter
      (fun r ->
        if r.alive then begin
          let mn, mn_inf, mx, mx_inf = activities lb ub r in
          let scale =
            1. +. Float.abs r.rhs +. (if mn_inf = 0 then Float.abs mn else 0.)
          in
          if mn_inf = 0 && mn > r.rhs +. (1e-6 *. scale) then raise Probe_infeasible;
          if r.eq && mx_inf = 0 && mx < r.rhs -. (1e-6 *. scale) then
            raise Probe_infeasible;
          Array.iteri
            (fun k j ->
              let a = r.coefs.(k) in
              if a <> 0. && lb.(j) < ub.(j) then begin
                let l = lb.(j) and u = ub.(j) in
                let cmin_inf =
                  if a > 0. then l = Float.neg_infinity else u = Float.infinity
                in
                let rest_known = if cmin_inf then mn_inf = 1 else mn_inf = 0 in
                if rest_known then begin
                  let cmin = if cmin_inf then 0. else if a > 0. then a *. l else a *. u in
                  let rest = if cmin_inf then mn else mn -. cmin in
                  let cap = (r.rhs -. rest) /. a in
                  if a > 0. then begin
                    if gen_tighten_ub st.kind lb ub j cap ~infeas:Probe_infeasible then
                      changed := true
                  end
                  else if gen_tighten_lb st.kind lb ub j cap ~infeas:Probe_infeasible
                  then changed := true
                end;
                if r.eq then begin
                  let cmax_inf =
                    if a > 0. then u = Float.infinity else l = Float.neg_infinity
                  in
                  let rest_known = if cmax_inf then mx_inf = 1 else mx_inf = 0 in
                  if rest_known then begin
                    let cmax =
                      if cmax_inf then 0. else if a > 0. then a *. u else a *. l
                    in
                    let rest = if cmax_inf then mx else mx -. cmax in
                    let low = (r.rhs -. rest) /. a in
                    if a > 0. then begin
                      if gen_tighten_lb st.kind lb ub j low ~infeas:Probe_infeasible
                      then changed := true
                    end
                    else if gen_tighten_ub st.kind lb ub j low ~infeas:Probe_infeasible
                    then changed := true
                  end
                end
              end)
            r.rvars
        end)
      st.rows
  done

(* Adopt bounds proven valid for the whole remaining feasible set. *)
let adopt st l u =
  for k = 0 to st.nv - 1 do
    if not st.is_fixed.(k) then begin
      if l.(k) > st.lb.(k) then tighten_lb st k l.(k);
      if u.(k) < st.ub.(k) then tighten_ub st k u.(k)
    end
  done

(* Probing: temporarily fix each {0,1} variable to both values and
   propagate. An infeasible branch fixes the variable to the other value
   (both infeasible proves the model infeasible); two feasible branches
   still yield the branch-union bounds, valid globally since every
   feasible point lives in one branch. Variables are visited in id order,
   which reaches the Raha link-failure binaries first. *)
let probe st =
  let n_probed = ref 0 in
  let j = ref 0 in
  while !j < st.nv && !n_probed < probe_limit do
    let id = !j in
    if
      (not st.is_fixed.(id))
      && is_int_kind st.kind.(id)
      && st.lb.(id) = 0.
      && st.ub.(id) = 1.
    then begin
      incr n_probed;
      let branch v =
        let lb = Array.copy st.lb and ub = Array.copy st.ub in
        lb.(id) <- v;
        ub.(id) <- v;
        match probe_propagate st lb ub ~rounds:3 with
        | () -> Some (lb, ub)
        | exception Probe_infeasible -> None
      in
      match (branch 0., branch 1.) with
      | None, None -> raise Infeasible_model
      | None, Some (l1, u1) ->
        fix st id 1.;
        adopt st l1 u1
      | Some (l0, u0), None ->
        fix st id 0.;
        adopt st l0 u0
      | Some (l0, u0), Some (l1, u1) ->
        for k = 0 to st.nv - 1 do
          if not st.is_fixed.(k) then begin
            let nl = Float.min l0.(k) l1.(k) and nu = Float.max u0.(k) u1.(k) in
            if nl > st.lb.(k) then tighten_lb st k nl;
            if nu < st.ub.(k) then tighten_ub st k nu
          end
        done
    end;
    incr j
  done;
  !n_probed

let build_state model =
  let nv = Model.num_vars model in
  let lb, ub = Model.bounds model in
  let kind = Array.map (fun (v : Model.var) -> v.Model.kind) (Model.vars model) in
  let rows =
    Array.map
      (fun (c : Model.cons) ->
        let flip = match c.Model.rel with Model.Ge -> -1. | Model.Le | Model.Eq -> 1. in
        let terms = Linexpr.terms c.Model.lhs in
        let rvars = Array.of_list (List.map snd terms) in
        let coefs = Array.of_list (List.map (fun (a, _) -> flip *. a) terms) in
        {
          rname = c.Model.cname;
          eq = c.Model.rel = Model.Eq;
          rvars;
          coefs;
          rhs = (flip *. c.Model.rhs) -. (flip *. Linexpr.constant c.Model.lhs);
          alive = true;
        })
      (Model.conss model)
  in
  {
    nv;
    kind;
    lb;
    ub;
    is_fixed = Array.make nv false;
    fixval = Array.make nv 0.;
    rows;
    n_rows_removed = 0;
    n_cols_fixed = 0;
    n_bounds = 0;
    n_bigm = 0;
    changed = false;
  }

let build_reduced st model =
  let post = Postsolve.make ~is_fixed:st.is_fixed ~value:st.fixval in
  let rid = Array.make st.nv (-1) in
  let rm = Model.create ~name:(Model.name model ^ "+presolve") () in
  for j = 0 to st.nv - 1 do
    if not st.is_fixed.(j) then
      rid.(j) <-
        (Model.add_var rm ~name:(Model.var_name model j) ~kind:st.kind.(j)
           ~lb:st.lb.(j) ~ub:st.ub.(j))
          .Model.vid
  done;
  Array.iter
    (fun r ->
      if r.alive then begin
        let terms = ref [] and fc = ref 0. in
        Array.iteri
          (fun k j ->
            let a = r.coefs.(k) in
            if a <> 0. then
              if st.is_fixed.(j) then fc := !fc +. (a *. st.fixval.(j))
              else terms := (a, rid.(j)) :: !terms)
          r.rvars;
        let rhs = r.rhs -. !fc in
        match !terms with
        | [] ->
          (* everything in the row got fixed after the last sweep *)
          let viol = if r.eq then Float.abs rhs else Float.max 0. (-.rhs) in
          if viol > 1e-6 *. (1. +. Float.abs r.rhs) then raise Infeasible_model
        | ts ->
          Model.add_cons rm ~name:r.rname (Linexpr.of_terms ts)
            (if r.eq then Model.Eq else Model.Le)
            rhs
      end)
    st.rows;
  let sense, obj = Model.objective model in
  let oterms = ref [] and oconst = ref (Linexpr.constant obj) in
  Linexpr.iter
    (fun j c ->
      if st.is_fixed.(j) then oconst := !oconst +. (c *. st.fixval.(j))
      else oterms := (c, rid.(j)) :: !oterms)
    obj;
  Model.set_objective rm sense (Linexpr.of_terms ~const:!oconst !oterms);
  (rm, post)

let presolve model =
  let st = build_state model in
  let total_passes = ref 0 and probed = ref 0 and probe_fixed = ref 0 in
  let run () =
    (* initial normalization: round integer bounds, fix collapsed boxes *)
    for j = 0 to st.nv - 1 do
      if is_int_kind st.kind.(j) then begin
        st.lb.(j) <- Float.ceil (st.lb.(j) -. 1e-6);
        st.ub.(j) <- Float.floor (st.ub.(j) +. 1e-6)
      end;
      if st.lb.(j) > st.ub.(j) then raise Infeasible_model;
      if
        Float.is_finite st.lb.(j)
        && st.ub.(j) -. st.lb.(j) <= 1e-9 *. (1. +. Float.abs st.lb.(j))
      then fix st j st.lb.(j)
    done;
    total_passes := fixpoint st;
    let fixed0 = st.n_cols_fixed and bounds0 = st.n_bounds in
    probed := probe st;
    probe_fixed := st.n_cols_fixed - fixed0;
    if st.n_cols_fixed > fixed0 || st.n_bounds > bounds0 then
      total_passes := !total_passes + fixpoint st;
    build_reduced st model
  in
  let mk_stats () =
    {
      passes = !total_passes;
      rows_removed = st.n_rows_removed;
      cols_fixed = st.n_cols_fixed;
      bounds_tightened = st.n_bounds;
      big_ms_tightened = st.n_bigm;
      probed = !probed;
      probe_fixed = !probe_fixed;
    }
  in
  let finish stats =
    Lp_stats.add Lp_stats.presolve_rows stats.rows_removed;
    Lp_stats.add Lp_stats.presolve_cols stats.cols_fixed;
    Lp_stats.add Lp_stats.presolve_bigm stats.big_ms_tightened
  in
  match run () with
  | exception Infeasible_model ->
    let stats = mk_stats () in
    finish stats;
    Infeasible stats
  | rm, post ->
    let stats = mk_stats () in
    finish stats;
    Reduced { model = rm; post; stats }
