let src = Logs.Src.create "milp.certify" ~doc:"independent solution certification"

module Log = (val Logs.src_log src : Logs.LOG)

type tolerances = {
  feas_tol : float;
  int_tol : float;
  obj_tol : float;
  abs_gap : float;
  rel_gap : float;
  dual_tol : float;
  dual_gap_tol : float;
}

let default_tolerances =
  {
    feas_tol = 1e-5;
    int_tol = 1e-5;
    obj_tol = 1e-6;
    abs_gap = 1e-6;
    rel_gap = 1e-6;
    dual_tol = 1e-6;
    dual_gap_tol = 1e-5;
  }

type t = {
  ok : bool;
  point_ok : bool;
  obj_ok : bool;
  bound_ok : bool;
  dual_ok : bool option;
  max_primal_residual : float;
  max_int_residual : float;
  obj_error : float;
  bound_violation : float;
  dual_gap : float;
  dual_infeas : float;
  failures : string list;
}

(* Kahan-compensated evaluation of a linear expression at a point; also
   returns the largest |term| seen, the natural scale for the residual
   tolerance of the row it came from. *)
let kahan_eval values e =
  let s = ref 0. and c = ref 0. and scale = ref 0. in
  Linexpr.iter
    (fun id k ->
      let term = k *. values.(id) in
      let a = Float.abs term in
      if a > !scale then scale := a;
      let y = term -. !c in
      let t = !s +. y in
      c := (t -. !s) -. y;
      s := t)
    e;
  let k0 = Linexpr.constant e in
  ((!s +. (k0 -. !c)), !scale)

(* ------------------------------------------------------------------ *)
(* Dual-feasibility / weak-duality certificate for pure LPs.

   The engines solve a presolved model, and presolve rewrites and drops
   rows, so their dual values cannot certify the original model.
   Instead we rebuild multipliers from scratch, using only the returned
   structural statuses and the claimed point:

   1. Work in minimization form (negate a Maximize objective).
   2. A column must have zero reduced cost if its status is [Basic] or
      its value is strictly interior to its original bounds
      (complementary slackness covers presolve-fixed columns whose
      postsolved status is a synthetic [At_lower]).
   3. Pick one pivot row per such column by Gaussian elimination on the
      column set, preferring *tight* rows — a row whose slack is
      strictly interior must have a basic slack, i.e. multiplier 0.
   4. Solve the square system [A_B' y = c_B] on the pivot rows (y = 0
      elsewhere), form reduced costs d = c - A'y for every column, and
      clamp |d| below tolerance to zero, recording the clamp magnitude.
   5. Dual feasibility: d may not point at a missing (infinite) bound,
      and row multipliers must respect the row sense (Le: y <= 0 in min
      form; Ge: y >= 0; Eq free).
   6. The Lagrangian bound L(y) = y'b + sum_j min over [lb_j, ub_j] of
      d_j x_j is a valid lower bound for ANY y; certification of
      optimality is |c'x - L(y)| within tolerance. *)

type dual_result =
  | Dual of { gap : float; infeas : float; fails : string list }
  | Dual_unavailable of string

(* Cap the O(k^2 m) reconstruction; pure-LP solves through the full
   Solver facade are small in this codebase (the big models are MILPs). *)
let dual_size_limit = 4_000_000

let dual_certificate ~tols model ~values ~statuses ~acts ~obj =
  let sense, objx = Model.objective model in
  let osign = match sense with Model.Maximize -> -1. | Model.Minimize -> 1. in
  let nv = Model.num_vars model in
  let conss = Model.conss model in
  let m = Array.length conss in
  let lbs, ubs = Model.bounds model in
  let cost = Array.make nv 0. in
  Linexpr.iter (fun id k -> cost.(id) <- cost.(id) +. (osign *. k)) objx;
  (* columns whose reduced cost must vanish *)
  let enforce = ref [] in
  for j = nv - 1 downto 0 do
    let eps = 1e-7 *. (1. +. Float.abs values.(j)) in
    let interior = values.(j) > lbs.(j) +. eps && values.(j) < ubs.(j) -. eps in
    if statuses.(j) = Simplex.Basic || interior then enforce := j :: !enforce
  done;
  let basics = Array.of_list !enforce in
  let k = Array.length basics in
  if k * m > dual_size_limit then Dual_unavailable "model too large"
  else begin
    let pos = Array.make nv (-1) in
    Array.iteri (fun t j -> pos.(j) <- t) basics;
    let cols = Array.init k (fun _ -> Array.make m 0.) in
    Array.iteri
      (fun i (c : Model.cons) ->
        Linexpr.iter
          (fun id kf ->
            if pos.(id) >= 0 then
              cols.(pos.(id)).(i) <- cols.(pos.(id)).(i) +. kf)
          c.Model.lhs)
      conss;
    let tight = Array.make m false in
    Array.iteri
      (fun i (c : Model.cons) ->
        let scale = 1. +. Float.abs c.Model.rhs +. Float.abs acts.(i) in
        tight.(i) <-
          (match c.Model.rel with
          | Model.Eq -> true
          | Model.Le | Model.Ge ->
            Float.abs (c.Model.rhs -. acts.(i)) <= 1e-7 *. scale))
      conss;
    (* One pivot row per enforced column; elimination keeps the chosen
       rows independent (each pivot zeroes its row in later columns).
       Only tight rows are eligible: a row with interior slack has a
       basic slack, hence multiplier 0, so it cannot carry a pivot. A
       column with no tight-row pivot left is dropped — its reduced
       cost then lands in the clamp/failure accounting below. *)
    let colnorm =
      Array.map
        (fun col -> Array.fold_left (fun a v -> Float.max a (Float.abs v)) 0. col)
        cols
    in
    let work = Array.map Array.copy cols in
    let used = Array.make m false in
    let pivot_row = Array.make k (-1) in
    for t = 0 to k - 1 do
      let wt = work.(t) in
      let best = ref (-1) and bestv = ref 0. in
      for i = 0 to m - 1 do
        if tight.(i) && not used.(i) then begin
          let a = Float.abs wt.(i) in
          if a > !bestv then begin
            best := i;
            bestv := a
          end
        end
      done;
      if !best >= 0 && !bestv > 1e-9 *. Float.max 1. colnorm.(t) then begin
        let p = !best in
        pivot_row.(t) <- p;
        used.(p) <- true;
        for t' = t + 1 to k - 1 do
          let w' = work.(t') in
          if w'.(p) <> 0. then begin
            let f = w'.(p) /. wt.(p) in
            for i = 0 to m - 1 do
              w'.(i) <- w'.(i) -. (f *. wt.(i))
            done;
            w'.(p) <- 0.
          end
        done
      end
    done;
    (* square system on the selected (column, pivot row) pairs *)
    let sel = ref [] in
    for t = k - 1 downto 0 do
      if pivot_row.(t) >= 0 then sel := t :: !sel
    done;
    let sel = Array.of_list !sel in
    let ks = Array.length sel in
    let mat = Array.init ks (fun _ -> Array.make (ks + 1) 0.) in
    Array.iteri
      (fun r t ->
        Array.iteri (fun cidx s -> mat.(r).(cidx) <- cols.(t).(pivot_row.(s))) sel;
        mat.(r).(ks) <- cost.(basics.(t)))
      sel;
    let singular = ref false in
    for cidx = 0 to ks - 1 do
      let piv = ref cidx in
      for r = cidx + 1 to ks - 1 do
        if Float.abs mat.(r).(cidx) > Float.abs mat.(!piv).(cidx) then piv := r
      done;
      let tmp = mat.(cidx) in
      mat.(cidx) <- mat.(!piv);
      mat.(!piv) <- tmp;
      if Float.abs mat.(cidx).(cidx) <= 1e-12 then singular := true
      else
        for r = cidx + 1 to ks - 1 do
          if mat.(r).(cidx) <> 0. then begin
            let f = mat.(r).(cidx) /. mat.(cidx).(cidx) in
            for cc = cidx to ks do
              mat.(r).(cc) <- mat.(r).(cc) -. (f *. mat.(cidx).(cc))
            done
          end
        done
    done;
    if !singular then Dual_unavailable "singular basis reconstruction"
    else begin
      let ysol = Array.make ks 0. in
      for r = ks - 1 downto 0 do
        let s = ref mat.(r).(ks) in
        for cc = r + 1 to ks - 1 do
          s := !s -. (mat.(r).(cc) *. ysol.(cc))
        done;
        ysol.(r) <- !s /. mat.(r).(r)
      done;
      let y = Array.make m 0. in
      Array.iteri (fun cidx s -> y.(pivot_row.(s)) <- ysol.(cidx)) sel;
      (* reduced costs and per-column scales *)
      let d = Array.copy cost in
      let cscale = Array.map (fun cj -> 1. +. Float.abs cj) cost in
      Array.iteri
        (fun i (c : Model.cons) ->
          let yi = y.(i) in
          if yi <> 0. then
            Linexpr.iter
              (fun id kf ->
                d.(id) <- d.(id) -. (yi *. kf);
                cscale.(id) <- cscale.(id) +. Float.abs (yi *. kf))
              c.Model.lhs)
        conss;
      let infeas = ref 0. and fails = ref [] in
      let record_fail msg v =
        if v > !infeas then infeas := v;
        if List.length !fails < 3 then
          fails := Printf.sprintf "%s (%.3e)" msg v :: !fails
      in
      (* Lagrangian bound, Kahan-accumulated *)
      let l = ref 0. and lc = ref 0. in
      let kadd v =
        let yv = v -. !lc in
        let t = !l +. yv in
        lc := (t -. !l) -. yv;
        l := t
      in
      Array.iteri (fun i (c : Model.cons) -> kadd (y.(i) *. c.Model.rhs)) conss;
      for j = 0 to nv - 1 do
        let dj = d.(j) in
        let ztol = tols.dual_tol *. cscale.(j) in
        if Float.abs dj <= ztol then begin
          (* clamped to zero: contributes nothing, but the clamp size is
             part of the certificate's error budget *)
          let v = Float.abs dj /. cscale.(j) in
          if v > !infeas then infeas := v
        end
        else if dj > 0. then
          if Float.is_finite lbs.(j) then kadd (dj *. lbs.(j))
          else record_fail (Printf.sprintf "dual infeasible on column %d" j) (dj /. cscale.(j))
        else if Float.is_finite ubs.(j) then kadd (dj *. ubs.(j))
        else record_fail (Printf.sprintf "dual infeasible on column %d" j) (-.dj /. cscale.(j))
      done;
      (* slack columns: cost 0, reduced cost -y_i; their bound intervals
         ([0,inf) for Le, (-inf,0] for Ge, {0} for Eq) contribute 0 to
         L(y) but constrain the sign of y *)
      Array.iteri
        (fun i (c : Model.cons) ->
          let yt = tols.dual_tol *. (1. +. Float.abs y.(i)) in
          match c.Model.rel with
          | Model.Le ->
            if y.(i) > yt then
              record_fail (Printf.sprintf "row %d multiplier sign" i) (y.(i) /. (1. +. Float.abs y.(i)))
          | Model.Ge ->
            if y.(i) < -.yt then
              record_fail (Printf.sprintf "row %d multiplier sign" i) (-.y.(i) /. (1. +. Float.abs y.(i)))
          | Model.Eq -> ())
        conss;
      let lagrangian = !l +. (osign *. Linexpr.constant objx) in
      let obj_min = osign *. obj in
      let gap = Float.abs (obj_min -. lagrangian) /. (1. +. Float.abs obj_min) in
      Dual { gap; infeas = !infeas; fails = List.rev !fails }
    end
  end

(* ------------------------------------------------------------------ *)

let check ?(tols = default_tolerances) ?(optimal = false) ~model ~obj ~bound
    ~values ~statuses () =
  let nv = Model.num_vars model in
  let conss = Model.conss model in
  let m = Array.length conss in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let point_ok, max_primal, max_int, acts =
    if Array.length values <> nv || not (Float.is_finite obj) then begin
      fail "claimed point missing or objective not finite";
      (false, infinity, infinity, [||])
    end
    else begin
      let acts = Array.make m 0. in
      let max_res = ref 0. and first = ref true in
      let bump ?ctx res =
        if res > !max_res then max_res := res;
        if res > tols.feas_tol && !first then begin
          first := false;
          match ctx with Some s -> fail "%s: residual %.3e" s res | None -> ()
        end
      in
      Array.iteri
        (fun i (c : Model.cons) ->
          let lhs, tscale = kahan_eval values c.Model.lhs in
          acts.(i) <- lhs;
          let scale = 1. +. Float.abs c.Model.rhs +. tscale in
          let viol =
            match c.Model.rel with
            | Model.Le -> lhs -. c.Model.rhs
            | Model.Ge -> c.Model.rhs -. lhs
            | Model.Eq -> Float.abs (lhs -. c.Model.rhs)
          in
          bump ~ctx:(Printf.sprintf "row %d (%s)" i c.Model.cname)
            (Float.max 0. viol /. scale))
        conss;
      Array.iter
        (fun (v : Model.var) ->
          let x = values.(v.Model.vid) in
          if Float.is_finite v.Model.lb then
            bump ~ctx:(Printf.sprintf "lower bound of %s" v.Model.vname)
              ((v.Model.lb -. x) /. (1. +. Float.abs v.Model.lb));
          if Float.is_finite v.Model.ub then
            bump ~ctx:(Printf.sprintf "upper bound of %s" v.Model.vname)
              ((x -. v.Model.ub) /. (1. +. Float.abs v.Model.ub)))
        (Model.vars model);
      let max_int = ref 0. in
      List.iter
        (fun id ->
          let x = values.(id) in
          let frac = Float.abs (x -. Float.round x) in
          if frac > !max_int then max_int := frac;
          if frac > tols.int_tol && frac = !max_int then
            fail "variable %s not integral: frac %.3e" (Model.var_name model id) frac)
        (Model.int_var_ids model);
      (!max_res <= tols.feas_tol && !max_int <= tols.int_tol, !max_res, !max_int, acts)
    end
  in
  let obj_error, obj_ok =
    if not (Float.is_finite obj) || Array.length values <> nv then (infinity, false)
    else begin
      let _, objx = Model.objective model in
      let recomputed, _ = kahan_eval values objx in
      let err = Float.abs (recomputed -. obj) /. (1. +. Float.abs obj) in
      if err > tols.obj_tol then
        fail "objective mismatch: reported %.9g, recomputed %.9g" obj recomputed;
      (err, err <= tols.obj_tol)
    end
  in
  let bound_violation, bound_ok =
    (* normalize to maximization form, where bound is an upper bound *)
    let sense, _ = Model.objective model in
    let maxf x = match sense with Model.Maximize -> x | Model.Minimize -> -.x in
    let obj_max = maxf obj and bound_max = maxf bound in
    if Float.is_nan bound_max then begin
      fail "bound is nan";
      (infinity, false)
    end
    else begin
      let gap =
        Float.max tols.abs_gap (tols.rel_gap *. Float.max 1. (Float.abs obj_max))
      in
      let slack = 1e-9 *. (1. +. Float.abs obj_max) in
      let over = obj_max -. bound_max -. gap -. slack in
      if over > 0. then
        fail "objective %.9g exceeds claimed bound %.9g" obj_max bound_max;
      let opt_gap =
        if optimal then bound_max -. obj_max -. (gap *. (1. +. 1e-6)) -. slack
        else neg_infinity
      in
      if opt_gap > 0. then
        fail "claimed optimal but gap open: bound %.9g vs objective %.9g"
          bound_max obj_max;
      (Float.max 0. (Float.max over opt_gap), over <= 0. && opt_gap <= 0.)
    end
  in
  let dual_ok, dual_gap, dual_infeas =
    if
      (not optimal) || (not point_ok)
      || Model.num_int_vars model > 0
      || Array.length statuses <> nv
    then (None, nan, nan)
    else
      match dual_certificate ~tols model ~values ~statuses ~acts ~obj with
      | Dual_unavailable reason ->
        Log.debug (fun f -> f "dual certificate unavailable: %s" reason);
        (None, nan, nan)
      | Dual { gap; infeas; fails } ->
        List.iter (fun s -> fail "%s" s) fails;
        let ok = fails = [] && gap <= tols.dual_gap_tol in
        if not ok && fails = [] then
          fail "weak-duality gap %.3e exceeds %.3e" gap tols.dual_gap_tol;
        (Some ok, gap, infeas)
  in
  let ok = point_ok && obj_ok && bound_ok && dual_ok <> Some false in
  let cert =
    {
      ok;
      point_ok;
      obj_ok;
      bound_ok;
      dual_ok;
      max_primal_residual = max_primal;
      max_int_residual = max_int;
      obj_error;
      bound_violation;
      dual_gap;
      dual_infeas;
      failures = List.rev !failures;
    }
  in
  Lp_stats.incr Lp_stats.certify_checks;
  if not ok then Lp_stats.incr Lp_stats.certify_failures;
  if not ok then
    Log.warn (fun f ->
        f "certificate FAILED for %s: %s" (Model.name model)
          (String.concat "; " cert.failures));
  cert

let pp ppf c =
  Format.fprintf ppf
    "@[<h>certificate: %s (residual %.2e, int %.2e, obj err %.2e%s)@]"
    (if c.ok then "ok" else "FAILED")
    c.max_primal_residual c.max_int_residual c.obj_error
    (match c.dual_ok with
    | Some true -> Format.sprintf ", dual gap %.2e" c.dual_gap
    | Some false -> Format.sprintf ", dual FAILED gap %.2e" c.dual_gap
    | None -> "")
