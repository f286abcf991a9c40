(* Cutting planes: Gomory mixed-integer, knapsack cover and clique cuts
   over a managed pool. See cuts.mli for the contract; the notes here
   are about validity.

   Every cut is a globally valid inequality for the model handed to
   [create]: separations may use a node's LP point (to find violated
   candidates) but never its branching bounds. GMI shifts use the
   solve-global bounds recorded at [create]; cover and clique cuts only
   use row data and integrality. That makes the pool shareable across
   the whole branch-and-bound tree.

   Dropping a term from a derived inequality is never done silently:
   removing [c * x_j] from a [<=] row is only sound after relaxing the
   rhs by the term's minimum over the variable's global box (and is
   skipped when that box is unbounded). Strengthening-by-truncation is
   exactly the kind of bug the audit layer exists to catch, so we do
   not rely on the audit to excuse it. *)

let src = Logs.Src.create "milp.cuts" ~doc:"cutting planes"

module Log = (val Logs.src_log src : Logs.LOG)

type family = Gomory | Cover | Clique

let family_name = function
  | Gomory -> "gomory"
  | Cover -> "cover"
  | Clique -> "clique"

type options = { enable : bool }

let default = { enable = true }
let disabled = { enable = false }
let root_rounds = 6
let node_interval = 200
let max_per_round = 20
let pool_size = 200
let max_age = 12
let max_support = 200

type cut = {
  terms : (float * int) array;
  rhs : float;
  family : family;
  mutable age : int;
}

(* A knapsack row normalized to [sum a_j y_j <= cap] with a_j > 0 over
   literals y_j = x_j ([true]) or 1 - x_j ([false]). *)
type knap = { kcap : float; kitems : (float * int * bool) array }

(* Literals of the conflict graph: [2 * id + 1] for x_id = 1, [2 * id]
   for x_id = 0. *)
let lit_pos id = (2 * id) + 1
let lit_neg id = 2 * id
let lit_id l = l / 2
let lit_is_pos l = l land 1 = 1
let lit_value x l = if lit_is_pos l then x.(lit_id l) else 1. -. x.(lit_id l)
let conflict_key a b = if a < b then (a, b) else (b, a)

type pool = {
  glo : float array;  (* solve-global structural bounds *)
  ghi : float array;
  is_int : bool array;
  knaps : knap array;
  conflict : (int * int, unit) Hashtbl.t;  (* conflicting literal pairs *)
  graph_lits : int array;  (* sorted literals present in the graph *)
  mutable active : cut list;  (* activation order *)
  mutable nactive : int;
  seen : (string, unit) Hashtbl.t;  (* normalized-support dedup *)
}

(* ------------------------------------------------------------------ *)
(* Cut hygiene: normalization, hashing, evaluation, audit              *)

let eval_cut cut x =
  (* compensated (Kahan) dot: the audit compares against Certify-grade
     residuals, so the evaluation itself must not drown them in
     accumulation error *)
  let s = ref 0. and c = ref 0. in
  Array.iter
    (fun (a, id) ->
      let y = (a *. x.(id)) -. !c in
      let t = !s +. y in
      c := t -. !s -. y;
      s := t)
    cut.terms;
  !s

let key_of cut =
  let b = Buffer.create 64 in
  Array.iter
    (fun (c, id) -> Buffer.add_string b (Printf.sprintf "%d:%.6g;" id c))
    cut.terms;
  Buffer.add_string b (Printf.sprintf "|%.6g" cut.rhs);
  Buffer.contents b

(* Drop negligible coefficients from [sum terms <= rhs] by relaxing the
   rhs with the term's minimum over the global box (never strengthen),
   then reject numerically hopeless rows: empty or over-wide support,
   dynamism beyond 1e7, wild rhs. *)
let clean_le pool terms rhs =
  let maxc =
    List.fold_left (fun a (c, _) -> Float.max a (Float.abs c)) 0. terms
  in
  if not (Float.is_finite maxc) || maxc < 1e-9 then None
  else begin
    let rhs = ref rhs and kept = ref [] in
    List.iter
      (fun (c, id) ->
        if Float.abs c <= 1e-10 *. maxc then begin
          if c <> 0. then begin
            let mn = Float.min (c *. pool.glo.(id)) (c *. pool.ghi.(id)) in
            if Float.is_finite mn then rhs := !rhs -. mn
            else kept := (c, id) :: !kept
          end
        end
        else kept := (c, id) :: !kept)
      terms;
    let kept = List.rev !kept in
    let minc =
      List.fold_left (fun a (c, _) -> Float.min a (Float.abs c)) infinity kept
    in
    if
      kept = []
      || List.length kept > max_support
      || maxc /. minc > 1e7
      || (not (Float.is_finite !rhs))
      || Float.abs !rhs > 1e10 *. maxc
    then None
    else Some (kept, !rhs)
  end

(* Scale to max |coeff| = 1 and sort the support by id. *)
let normalize terms rhs family =
  let maxc =
    List.fold_left (fun a (c, _) -> Float.max a (Float.abs c)) 0. terms
  in
  if maxc <= 0. then None
  else begin
    let s = 1. /. maxc in
    let arr = Array.of_list (List.map (fun (c, id) -> (c *. s, id)) terms) in
    Array.sort (fun (_, a) (_, b) -> compare a b) arr;
    Some { terms = arr; rhs = rhs *. s; family; age = 0 }
  end

(* Generation-time audit: finite data, and — when an incumbent exists —
   the incumbent satisfies the cut within a residual tolerance scaled
   like Certify's row checks. A rejection bumps [cut-audit-failures]. *)
let audit ~incumbent cut =
  let finite =
    Float.is_finite cut.rhs
    && Array.for_all (fun (c, _) -> Float.is_finite c) cut.terms
  in
  let ok =
    finite
    &&
    match incumbent with
    | None -> true
    | Some x ->
      let lhs = eval_cut cut x in
      let scale =
        Array.fold_left
          (fun a (c, id) -> Float.max a (Float.abs (c *. x.(id))))
          (Float.max 1. (Float.abs cut.rhs))
          cut.terms
      in
      lhs <= cut.rhs +. (1e-5 *. scale)
  in
  if not ok then begin
    Lp_stats.incr Lp_stats.cut_audit_failures;
    Log.warn (fun f ->
        f "audit rejected %s cut (support %d)" (family_name cut.family)
          (Array.length cut.terms))
  end;
  ok

(* ------------------------------------------------------------------ *)
(* Pool construction: knapsack candidates and the conflict graph       *)

let le_rows model =
  (* every row as <= rows over its structural terms (Eq contributes
     both directions); Model.add_cons already moved lhs constants to
     the rhs *)
  List.concat_map
    (fun (c : Model.cons) ->
      let ts = Linexpr.terms c.lhs in
      let neg () = List.map (fun (k, id) -> (-.k, id)) ts in
      match c.rel with
      | Model.Le -> [ (ts, c.rhs) ]
      | Model.Ge -> [ (neg (), -.c.rhs) ]
      | Model.Eq -> [ (ts, c.rhs); (neg (), -.c.rhs) ])
    (Array.to_list (Model.conss model))

let collect_knaps ~is_bin rows =
  List.filter_map
    (fun (ts, rhs) ->
      let w = List.length ts in
      if w < 2 || w > 64 then None
      else if not (List.for_all (fun (_, id) -> is_bin id) ts) then None
      else begin
        (* complement negative coefficients so all items are positive *)
        let cap = ref rhs and items = ref [] in
        List.iter
          (fun (c, id) ->
            if c > 0. then items := (c, id, true) :: !items
            else if c < 0. then begin
              items := (-.c, id, false) :: !items;
              cap := !cap -. c
            end)
          ts;
        let items = List.rev !items in
        let total = List.fold_left (fun a (c, _, _) -> a +. c) 0. items in
        (* rows no subset of items can overflow yield no covers; rows
           with a nonpositive cap are presolve's (or infeasibility's)
           business *)
        if List.length items < 2 || !cap <= 1e-9 || total <= !cap +. 1e-9 then
          None
        else Some { kcap = !cap; kitems = Array.of_list items }
      end)
    rows

let collect_conflicts ~is_bin ~glo ~ghi rows =
  let conflict = Hashtbl.create 256 and lit_set = Hashtbl.create 64 in
  let budget = ref 100_000 in
  List.iter
    (fun (ts, rhs) ->
      let bins = List.filter (fun (_, id) -> is_bin id) ts in
      let nbin = List.length bins in
      if nbin >= 2 && nbin <= 40 && !budget > 0 then begin
        (* minimal activity over the global box; rows with an unbounded
           side can imply nothing pairwise *)
        let minact = ref 0. and ok = ref true in
        List.iter
          (fun (c, id) ->
            let a = Float.min (c *. glo.(id)) (c *. ghi.(id)) in
            if Float.is_finite a then minact := !minact +. a else ok := false)
          ts;
        if !ok then begin
          let bins = Array.of_list bins in
          let tol = 1e-7 *. Float.max 1. (Float.abs rhs) in
          for i = 0 to Array.length bins - 1 do
            for j = i + 1 to Array.length bins - 1 do
              if !budget > 0 then begin
                let ci, idi = bins.(i) and cj, idj = bins.(j) in
                let base = !minact -. Float.min 0. ci -. Float.min 0. cj in
                List.iter
                  (fun (vi, vj) ->
                    (* both literals true already overflows the row *)
                    if base +. (ci *. vi) +. (cj *. vj) > rhs +. tol then begin
                      let li = if vi > 0.5 then lit_pos idi else lit_neg idi in
                      let lj = if vj > 0.5 then lit_pos idj else lit_neg idj in
                      let k = conflict_key li lj in
                      if not (Hashtbl.mem conflict k) then begin
                        Hashtbl.replace conflict k ();
                        Hashtbl.replace lit_set li ();
                        Hashtbl.replace lit_set lj ();
                        decr budget
                      end
                    end)
                  [ (1., 1.); (1., 0.); (0., 1.); (0., 0.) ]
              end
            done
          done
        end
      end)
    rows;
  let lits = Hashtbl.fold (fun l () acc -> l :: acc) lit_set [] in
  (conflict, Array.of_list (List.sort compare lits))

let create model =
  let nv = Model.num_vars model in
  let glo, ghi = Model.bounds model in
  let is_int = Array.make nv false in
  Array.iter
    (fun (v : Model.var) ->
      match v.kind with
      | Model.Binary | Model.Integer -> is_int.(v.vid) <- true
      | Model.Continuous -> ())
    (Model.vars model);
  let is_bin id =
    is_int.(id) && glo.(id) >= -1e-9 && ghi.(id) <= 1. +. 1e-9
  in
  let rows = le_rows model in
  let knaps = Array.of_list (collect_knaps ~is_bin rows) in
  let conflict, graph_lits = collect_conflicts ~is_bin ~glo ~ghi rows in
  Log.debug (fun f ->
      f "%s: %d knapsack rows, %d conflict pairs over %d literals"
        (Model.name model) (Array.length knaps) (Hashtbl.length conflict)
        (Array.length graph_lits));
  {
    glo;
    ghi;
    is_int;
    knaps;
    conflict;
    graph_lits;
    active = [];
    nactive = 0;
    seen = Hashtbl.create 64;
  }

(* ------------------------------------------------------------------ *)
(* Separators. Each pushes (terms, rhs, family) candidates, with terms
   over structural ids.                                                *)

(* Greedy minimal-cover separation: minimize sum (1 - y) over the LP
   point subject to overflowing the capacity, taking items by ascending
   (1 - y) / a. *)
let sep_cover pool x acc =
  Array.iter
    (fun k ->
      let n = Array.length k.kitems in
      let yval i =
        let _, id, pos = k.kitems.(i) in
        let y = if pos then x.(id) else 1. -. x.(id) in
        Float.min 1. (Float.max 0. y)
      in
      let order = Array.init n Fun.id in
      Array.sort
        (fun i j ->
          let ai, _, _ = k.kitems.(i) and aj, _, _ = k.kitems.(j) in
          compare ((1. -. yval i) /. ai, i) ((1. -. yval j) /. aj, j))
        order;
      let sum = ref 0. and cover = ref [] and enough = ref false in
      Array.iter
        (fun i ->
          if not !enough then begin
            let a, _, _ = k.kitems.(i) in
            sum := !sum +. a;
            cover := i :: !cover;
            if !sum > k.kcap +. 1e-9 then enough := true
          end)
        order;
      if !enough then begin
        let cover = List.rev !cover in
        let size = List.length cover in
        let ysum = List.fold_left (fun s i -> s +. yval i) 0. cover in
        (* violated cover inequality sum_{C} y <= |C| - 1 *)
        if ysum > float_of_int (size - 1) +. 1e-4 then begin
          let nneg = ref 0 in
          let terms =
            List.map
              (fun i ->
                let _, id, pos = k.kitems.(i) in
                if pos then (1., id)
                else begin
                  incr nneg;
                  (-1., id)
                end)
              cover
          in
          acc := (terms, float_of_int (size - 1 - !nneg), Cover) :: !acc
        end
      end)
    pool.knaps

(* Greedy clique separation on the conflict graph: grow maximal cliques
   from the highest-value literals; emit when the LP mass exceeds 1. *)
let sep_clique pool x acc =
  let conflicts a b = Hashtbl.mem pool.conflict (conflict_key a b) in
  let cands =
    Array.to_list (Array.map (fun l -> (lit_value x l, l)) pool.graph_lits)
  in
  let cands = List.filter (fun (v, _) -> v > 0.05) cands in
  let cands =
    List.sort
      (fun (v1, l1) (v2, l2) ->
        let c = compare v2 v1 in
        if c <> 0 then c else compare l1 l2)
      cands
  in
  let arr = Array.of_list cands in
  let tried = ref 0 in
  Array.iter
    (fun (v0, seed) ->
      if !tried < 8 && v0 > 0.3 then begin
        incr tried;
        let clique = ref [ seed ] and vsum = ref v0 in
        Array.iter
          (fun (v, l) ->
            if l <> seed && List.for_all (conflicts l) !clique then begin
              clique := l :: !clique;
              vsum := !vsum +. v
            end)
          arr;
        if List.length !clique >= 2 && !vsum > 1. +. 1e-4 then begin
          let nneg = ref 0 in
          let terms =
            List.map
              (fun l ->
                if lit_is_pos l then (1., lit_id l)
                else begin
                  incr nneg;
                  (-1., lit_id l)
                end)
              !clique
          in
          acc := (terms, 1. -. float_of_int !nneg, Clique) :: !acc
        end
      end)
    arr

(* Gomory mixed-integer cuts from the tableau rows of fractional
   integer basic variables.

   For basic row r of the extended LP (columns shifted to their global
   bounds so every nonbasic x' >= 0):
     x_B(r) + sum_q alpha_q x_q = rho . b,   rho = B^-T e_r,
   the GMI inequality with f0 = frac(beta') is
     sum_{int, f_q <= f0} f_q x'_q
     + sum_{int, f_q > f0} f0 (1 - f_q) / (1 - f0) x'_q
     + sum_{cont, a'_q > 0} a'_q x'_q
     + sum_{cont, a'_q < 0} f0 / (1 - f0) (-a'_q) x'_q  >=  f0.
   Unshifting and substituting the slack columns back out of the >=
   row yields a pure-structural <= inequality. Rows where a nonbasic
   column with meaningful alpha has no finite global bound on the
   shifted side are skipped — the shift (hence the cut) would be
   unsound. *)
let away = 5e-3

let sep_gomory pool ~sp ~rows ~bcols ~stats x acc =
  let m = sp.Sparse.m and n = sp.Sparse.n and nv = sp.Sparse.nv in
  match (try Some (Basis.create sp bcols) with Basis.Singular _ -> None) with
  | None -> ()
  | Some bas when Basis.bcols bas <> bcols ->
    (* the factorization repaired the selection: the tableau no longer
       matches the caller's statuses, skip this round *)
    ()
  | Some bas ->
    (* full internal point: structurals ++ implied slack values *)
    let fx = Array.make n 0. in
    Array.blit x 0 fx 0 nv;
    if m > 0 then begin
      let rhs = Array.sub sp.Sparse.b 0 m in
      for j = 0 to nv - 1 do
        if fx.(j) <> 0. then Sparse.axpy_col sp j (-.fx.(j)) rhs
      done;
      for i = 0 to m - 1 do
        fx.(nv + i) <- rhs.(i)
      done
    end;
    let col_lo q = if q < nv then pool.glo.(q) else sp.Sparse.slack_lo.(q - nv)
    and col_hi q = if q < nv then pool.ghi.(q) else sp.Sparse.slack_hi.(q - nv)
    in
    (* candidate rows: fractional integer basics, most fractional first *)
    let cands = ref [] in
    Array.iteri
      (fun r j ->
        if j < nv && pool.is_int.(j) then begin
          let f = fx.(j) -. Float.floor fx.(j) in
          if f > away && f < 1. -. away then
            cands := (Float.abs (f -. 0.5), r) :: !cands
        end)
      bcols;
    let cands = List.sort compare !cands in
    let cands = List.filteri (fun i _ -> i < max_per_round) cands in
    List.iter
      (fun (_, r) ->
        let er = Array.make (max m 1) 0. in
        er.(r) <- 1.;
        let rho = Basis.btran bas er in
        let beta = ref 0. in
        for i = 0 to m - 1 do
          beta := !beta +. (rho.(i) *. sp.Sparse.b.(i))
        done;
        (* shift every nonbasic column to a finite global bound *)
        let ok = ref true in
        let shifted = ref [] in
        for q = 0 to n - 1 do
          if !ok && stats.(q) <> Simplex.Basic then begin
            let alpha = Sparse.col_dot sp q rho in
            if Float.abs alpha > 1e-11 then begin
              let lo = col_lo q and hi = col_hi q in
              if hi -. lo <= 1e-12 then
                (* fixed column (e.g. an Eq slack): pure constant *)
                if Float.is_finite lo then beta := !beta -. (alpha *. lo)
                else ok := false
              else begin
                let prefer_lower =
                  match stats.(q) with
                  | Simplex.At_upper -> false
                  | Simplex.At_lower | Simplex.At_zero | Simplex.Basic -> true
                in
                let choice =
                  if prefer_lower then
                    if Float.is_finite lo then Some (lo, 1.)
                    else if Float.is_finite hi then Some (hi, -1.)
                    else None
                  else if Float.is_finite hi then Some (hi, -1.)
                  else if Float.is_finite lo then Some (lo, 1.)
                  else None
                in
                match choice with
                | None -> ok := false
                | Some (shift, sgn) ->
                  beta := !beta -. (alpha *. shift);
                  shifted := (q, alpha *. sgn, sgn, shift) :: !shifted
              end
            end
          end
        done;
        if !ok then begin
          let f0 = !beta -. Float.floor !beta in
          if f0 > away && f0 < 1. -. away then begin
            (* assemble the >= cut over original columns, substituting
               slacks with their defining rows *)
            let acc_s = Array.make nv 0. in
            let grhs = ref f0 in
            let ok2 = ref true in
            let add_col q g =
              if q < nv then acc_s.(q) <- acc_s.(q) +. g
              else begin
                let lhs, b_i = rows.(q - nv) in
                Linexpr.iter (fun id c -> acc_s.(id) <- acc_s.(id) -. (g *. c)) lhs;
                grhs := !grhs -. (g *. b_i)
              end
            in
            List.iter
              (fun (q, a', sgn, shift) ->
                let int_ok =
                  q < nv && pool.is_int.(q)
                  && Float.abs (shift -. Float.round shift) < 1e-9
                in
                let ghat =
                  if int_ok then begin
                    let fq = a' -. Float.floor a' in
                    if fq <= f0 +. 1e-12 then fq
                    else f0 *. (1. -. fq) /. (1. -. f0)
                  end
                  else if a' >= 0. then a'
                  else f0 /. (1. -. f0) *. -.a'
                in
                if ghat > 1e-11 then begin
                  (* ghat * x' = ghat * sgn * (x_q - shift) *)
                  let g = ghat *. sgn in
                  grhs := !grhs +. (g *. shift);
                  add_col q g
                end
                else if ghat > 0. then begin
                  (* dropping a positive term from a >= lhs strengthens
                     it; pay for the drop from the rhs, or keep the row
                     only if the range is finite *)
                  let range = col_hi q -. col_lo q in
                  if Float.is_finite range then grhs := !grhs -. (ghat *. range)
                  else ok2 := false
                end)
              (List.rev !shifted);
            if !ok2 then begin
              (* >= to <= *)
              let terms = ref [] in
              for k = nv - 1 downto 0 do
                if acc_s.(k) <> 0. then terms := (-.acc_s.(k), k) :: !terms
              done;
              acc := (!terms, -. !grhs, Gomory) :: !acc
            end
          end
        end)
      cands

(* ------------------------------------------------------------------ *)
(* Pool lifecycle                                                      *)

let active_count pool = pool.nactive
let active_cuts pool = pool.active

(* Clean and normalize the raw candidates of one round and keep the
   ones [point] violates, most violated first (the key tiebreak keeps
   the order deterministic). *)
let violated pool point raw =
  List.filter_map
    (fun (terms, rhs, fam) ->
      match clean_le pool terms rhs with
      | None -> None
      | Some (terms, rhs) -> (
        match normalize terms rhs fam with
        | None -> None
        | Some cut ->
          let viol = eval_cut cut point -. cut.rhs in
          if viol > 1e-6 *. Float.max 1. (Float.abs cut.rhs) then
            Some (viol, cut)
          else None))
    raw
  |> List.sort (fun (v1, c1) (v2, c2) ->
         let c = compare v2 v1 in
         if c <> 0 then c else compare (key_of c1) (key_of c2))
  |> List.map snd

let separate_round pool ~sp ~rows ~point ~basis ~incumbent =
  if pool.nactive >= pool_size then 0
  else begin
    let raw = ref [] in
    sep_cover pool point raw;
    sep_clique pool point raw;
    (match basis with
    | Some (bcols, stats) -> sep_gomory pool ~sp ~rows ~bcols ~stats point raw
    | None -> ());
    Lp_stats.add Lp_stats.cuts_generated (List.length !raw);
    let added = ref 0 in
    List.iter
      (fun cut ->
        if !added < max_per_round && pool.nactive < pool_size then begin
          let key = key_of cut in
          if (not (Hashtbl.mem pool.seen key)) && audit ~incumbent cut then begin
            Hashtbl.replace pool.seen key ();
            pool.active <- pool.active @ [ cut ];
            pool.nactive <- pool.nactive + 1;
            incr added;
            Lp_stats.incr Lp_stats.cuts_applied
          end
        end)
      (violated pool point !raw);
    !added
  end

let age_and_prune pool ~point =
  let pruned = ref 0 in
  let keep =
    List.filter
      (fun cut ->
        let slack = cut.rhs -. eval_cut cut point in
        if slack > 1e-7 *. Float.max 1. (Float.abs cut.rhs) then
          cut.age <- cut.age + 1
        else cut.age <- 0;
        if cut.age > max_age then begin
          incr pruned;
          (* allow the cut back in if it ever separates again *)
          Hashtbl.remove pool.seen (key_of cut);
          Lp_stats.incr Lp_stats.cuts_pruned;
          false
        end
        else true)
      pool.active
  in
  pool.active <- keep;
  pool.nactive <- List.length keep;
  !pruned

let audit_incumbent pool x =
  let dropped = ref 0 in
  let keep =
    List.filter
      (fun cut ->
        if audit ~incumbent:(Some x) cut then true
        else begin
          incr dropped;
          Hashtbl.remove pool.seen (key_of cut);
          false
        end)
      pool.active
  in
  pool.active <- keep;
  pool.nactive <- List.length keep;
  !dropped

let extend_model base pool =
  match pool.active with
  | [] -> base
  | cuts ->
    let m = Model.create ~name:(Model.name base) () in
    Array.iter
      (fun (v : Model.var) ->
        ignore (Model.add_var m ~name:v.vname ~kind:v.kind ~lb:v.lb ~ub:v.ub))
      (Model.vars base);
    Array.iter
      (fun (c : Model.cons) -> Model.add_cons m ~name:c.cname c.lhs c.rel c.rhs)
      (Model.conss base);
    let sense, obj = Model.objective base in
    Model.set_objective m sense obj;
    List.iteri
      (fun i cut ->
        Model.add_cons m
          ~name:(Printf.sprintf "%s_cut%d" (family_name cut.family) i)
          (Linexpr.of_terms (Array.to_list cut.terms))
          Model.Le cut.rhs)
      cuts;
    m
