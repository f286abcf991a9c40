(* Sparse LU basis factorization (Markowitz ordering, threshold
   pivoting) with product-form eta updates. See basis.mli.

   Factor representation: Gaussian elimination with explicit pivot
   order. Step [k] pivots on (row [prow.(k)], basis position
   [pcol.(k)]) with pivot value [pval.(k)]; [lmults.(k)] are the
   (row, multiplier) pairs eliminated below the pivot, [urows.(k)] the
   off-pivot entries (position, value) of the pivot row at elimination
   time. With M = E_{m-1}...E_0 the product of elimination steps and U
   the permuted upper factor:

     FTRAN  x = B^-1 b : t := M b, then back-substitute U x = t
     BTRAN  y = B^-T c : solve U^T w = c, then y := M^T w

   Basis exchanges append product-form etas on top: B' = B E, so
   FTRAN applies eta inverses after the LU solve (in append order) and
   BTRAN applies eta transpose-inverses before it (reverse order). *)

type lu = {
  nsteps : int;
  prow : int array;
  pcol : int array;
  pval : float array;
  lmults : (int * float) array array;
  urows : (int * float) array array;
  ucols : (int * float) list array; (* position -> (step, value) U column *)
}

type eta = { er : int; epiv : float; entries : (int * float) array }

type t = {
  a : Sparse.t;
  cols : int array;
  mutable lu : lu;
  mutable etas : eta array;
  mutable neta : int;
  max_eta : int;
}

exception Singular of string

let drop_tol = 1e-12
let stab_tol = 1e-7

(* One Markowitz-ordered elimination. Returns the factors plus any rows
   and basis positions left unpivoted (structural/numerical
   singularity). *)
let factorize a cols ~threshold =
  Lp_stats.incr Lp_stats.factorizations;
  let m = a.Sparse.m in
  let rows = Array.init m (fun _ -> Hashtbl.create 8) in
  let colrows = Array.make (max m 1) [] in
  let rcount = Array.make (max m 1) 0 in
  let ccount = Array.make (max m 1) 0 in
  let rowact = Array.make (max m 1) true in
  let colact = Array.make (max m 1) true in
  for k = 0 to m - 1 do
    Sparse.col_iter a cols.(k) (fun i v ->
        if Float.abs v > drop_tol then begin
          Hashtbl.replace rows.(i) k v;
          colrows.(k) <- i :: colrows.(k);
          rcount.(i) <- rcount.(i) + 1;
          ccount.(k) <- ccount.(k) + 1
        end)
  done;
  (* Compact a column's candidate list: drop stale rows, dedup. *)
  let seen = Array.make (max m 1) (-1) in
  let stamp = ref 0 in
  let active_rows k =
    incr stamp;
    let s = !stamp in
    let live =
      List.filter
        (fun r ->
          rowact.(r) && seen.(r) <> s && Hashtbl.mem rows.(r) k
          && (seen.(r) <- s;
              true))
        colrows.(k)
    in
    colrows.(k) <- live;
    live
  in
  let prow = Array.make (max m 1) (-1) in
  let pcol = Array.make (max m 1) (-1) in
  let pval = Array.make (max m 1) 0. in
  let lmults = Array.make (max m 1) [||] in
  let urows = Array.make (max m 1) [||] in
  let nsteps = ref 0 in
  (try
     for _step = 0 to m - 1 do
       (* Markowitz pivot search: min (r-1)(c-1) among entries passing
          the threshold test against their column's max magnitude. *)
       let best_cost = ref max_int
       and best_mag = ref 0.
       and best = ref None in
       (try
          for k = 0 to m - 1 do
            if colact.(k) then begin
              let live = active_rows k in
              let colmax =
                List.fold_left
                  (fun acc r -> Float.max acc (Float.abs (Hashtbl.find rows.(r) k)))
                  0. live
              in
              if colmax > drop_tol then
                List.iter
                  (fun r ->
                    let v = Hashtbl.find rows.(r) k in
                    if Float.abs v >= threshold *. colmax then begin
                      let cost = (rcount.(r) - 1) * (ccount.(k) - 1) in
                      if
                        cost < !best_cost
                        || (cost = !best_cost && Float.abs v > !best_mag)
                      then begin
                        best_cost := cost;
                        best_mag := Float.abs v;
                        best := Some (r, k, v);
                        if cost = 0 then raise Exit
                      end
                    end)
                  live
            end
          done
        with Exit -> ());
       match !best with
       | None -> raise Exit (* singular remainder *)
       | Some (pr, pc, v) ->
         let step = !nsteps in
         incr nsteps;
         prow.(step) <- pr;
         pcol.(step) <- pc;
         pval.(step) <- v;
         (* pivot row snapshot (off-pivot entries) *)
         let off = ref [] in
         Hashtbl.iter (fun kc pv -> if kc <> pc then off := (kc, pv) :: !off) rows.(pr);
         let off = Array.of_list !off in
         (* deterministic order keeps float sums reproducible *)
         Array.sort (fun (c1, _) (c2, _) -> compare c1 c2) off;
         urows.(step) <- off;
         (* eliminate the pivot column below/above the pivot *)
         let lm = ref [] in
         List.iter
           (fun r ->
             if r <> pr then begin
               let arpc = Hashtbl.find rows.(r) pc in
               let mult = arpc /. v in
               lm := (r, mult) :: !lm;
               Hashtbl.remove rows.(r) pc;
               rcount.(r) <- rcount.(r) - 1;
               Array.iter
                 (fun (kc, pv) ->
                   let cur =
                     match Hashtbl.find_opt rows.(r) kc with Some x -> x | None -> 0.
                   in
                   let nv = cur -. (mult *. pv) in
                   if Float.abs nv <= drop_tol then begin
                     if cur <> 0. then begin
                       Hashtbl.remove rows.(r) kc;
                       rcount.(r) <- rcount.(r) - 1;
                       ccount.(kc) <- ccount.(kc) - 1
                     end
                   end
                   else begin
                     if cur = 0. then begin
                       colrows.(kc) <- r :: colrows.(kc);
                       rcount.(r) <- rcount.(r) + 1;
                       ccount.(kc) <- ccount.(kc) + 1
                     end;
                     Hashtbl.replace rows.(r) kc nv
                   end)
                 off
             end)
           (active_rows pc);
         let lm = Array.of_list !lm in
         Array.sort (fun (r1, _) (r2, _) -> compare r1 r2) lm;
         lmults.(step) <- lm;
         (* retire the pivot row and column *)
         rowact.(pr) <- false;
         colact.(pc) <- false;
         Array.iter (fun (kc, _) -> ccount.(kc) <- ccount.(kc) - 1) off;
         Hashtbl.reset rows.(pr)
     done
   with Exit -> ());
  let ucols = Array.make (max m 1) [] in
  for k = 0 to !nsteps - 1 do
    Array.iter (fun (c, v) -> ucols.(c) <- (k, v) :: ucols.(c)) urows.(k)
  done;
  let bad_rows = ref [] and bad_pos = ref [] in
  for i = m - 1 downto 0 do
    if rowact.(i) then bad_rows := i :: !bad_rows;
    if colact.(i) then bad_pos := i :: !bad_pos
  done;
  ( { nsteps = !nsteps; prow; pcol; pval; lmults; urows; ucols },
    !bad_rows,
    !bad_pos )

(* FTRAN/BTRAN against the LU factors only (no etas). *)
let ftran_lu lu m b =
  let x = Array.copy b in
  for k = 0 to lu.nsteps - 1 do
    let t = x.(lu.prow.(k)) in
    if t <> 0. then
      Array.iter (fun (r, mult) -> x.(r) <- x.(r) -. (mult *. t)) lu.lmults.(k)
  done;
  let out = Array.make (max m 1) 0. in
  for k = lu.nsteps - 1 downto 0 do
    let s = ref x.(lu.prow.(k)) in
    Array.iter (fun (c, v) -> s := !s -. (v *. out.(c))) lu.urows.(k);
    out.(lu.pcol.(k)) <- !s /. lu.pval.(k)
  done;
  if m = 0 then [||] else out

let btran_lu lu m c =
  let z = Array.make (max m 1) 0. in
  for k = 0 to lu.nsteps - 1 do
    let s = ref c.(lu.pcol.(k)) in
    List.iter (fun (j, v) -> s := !s -. (v *. z.(j))) lu.ucols.(lu.pcol.(k));
    z.(k) <- !s /. lu.pval.(k)
  done;
  let w = Array.make (max m 1) 0. in
  for k = 0 to lu.nsteps - 1 do
    w.(lu.prow.(k)) <- z.(k)
  done;
  for k = lu.nsteps - 1 downto 0 do
    let acc = ref w.(lu.prow.(k)) in
    Array.iter (fun (r, mult) -> acc := !acc -. (mult *. w.(r))) lu.lmults.(k);
    w.(lu.prow.(k)) <- !acc
  done;
  if m = 0 then [||] else w

(* Residual check of a fresh factorization: FTRAN of basis column 0
   must reproduce the unit vector e_0. *)
let residual_ok a lu cols =
  let m = a.Sparse.m in
  if m = 0 then true
  else begin
    let b = Array.make m 0. in
    Sparse.axpy_col a cols.(0) 1. b;
    let x = ftran_lu lu m b in
    let err = ref 0. in
    for i = 0 to m - 1 do
      let expect = if i = 0 then 1. else 0. in
      err := Float.max !err (Float.abs (x.(i) -. expect))
    done;
    !err <= 1e-6
  end

let build_lu a cols =
  let nv = a.Sparse.nv in
  let rec attempt threshold tries =
    let lu, bad_rows, bad_pos = factorize a cols ~threshold in
    if bad_rows <> [] then begin
      if tries > 3 then raise (Singular "singular basis beyond repair");
      (* Repair: give every unpivoted position its own unpivoted row's
         slack column (a fresh unit column in exactly that row). *)
      let used = Array.make a.Sparse.n false in
      Array.iteri
        (fun p c -> if not (List.mem p bad_pos) then used.(c) <- true)
        cols;
      let remaining = ref bad_rows in
      List.iter
        (fun p ->
          let rec pick acc = function
            | [] -> raise (Singular "no slack available for repair")
            | r :: tl ->
              if used.(nv + r) then pick (r :: acc) tl
              else begin
                used.(nv + r) <- true;
                cols.(p) <- nv + r;
                remaining := List.rev_append acc tl
              end
          in
          pick [] !remaining)
        bad_pos;
      attempt threshold (tries + 1)
    end
    else if (not (residual_ok a lu cols)) && threshold < 0.5 then
      attempt 0.99 (tries + 1) (* near partial pivoting *)
    else lu
  in
  attempt 0.01 0

let create a bcols =
  let cols = Array.copy bcols in
  let lu = build_lu a cols in
  { a; cols; lu; etas = [||]; neta = 0; max_eta = 64 }

let bcols t = Array.copy t.cols

let ftran t b =
  let x = ftran_lu t.lu t.a.Sparse.m b in
  for e = 0 to t.neta - 1 do
    let { er; epiv; entries } = t.etas.(e) in
    let xr = x.(er) /. epiv in
    Array.iter (fun (i, w) -> x.(i) <- x.(i) -. (w *. xr)) entries;
    x.(er) <- xr
  done;
  x

let btran t c =
  let c =
    if t.neta = 0 then c
    else begin
      let c = Array.copy c in
      for e = t.neta - 1 downto 0 do
        let { er; epiv; entries } = t.etas.(e) in
        let acc = ref c.(er) in
        Array.iter (fun (i, w) -> acc := !acc -. (w *. c.(i))) entries;
        c.(er) <- !acc /. epiv
      done;
      c
    end
  in
  btran_lu t.lu t.a.Sparse.m c

let refactorize t =
  t.lu <- build_lu t.a t.cols;
  t.etas <- [||];
  t.neta <- 0

(* A snapshot shares the immutable [lu] value (replaced wholesale on
   refactorization, never mutated in place; FTRAN/BTRAN allocate their
   own scratch) plus a private copy of the — possibly repaired — basic
   column selection. [of_snapshot] reinstates it in O(m) with zero
   factorization work, and is domain-safe: every field it reads is
   immutable. The snapshot remembers which matrix it factors; reuse
   against any other Sparse.t is refused (the factors would be wrong),
   so callers fall back to a fresh [create]. *)
type snapshot = { sa : Sparse.t; scols : int array; slu : lu }

let snapshot t =
  if t.neta > 0 then refactorize t;
  { sa = t.a; scols = Array.copy t.cols; slu = t.lu }

let of_snapshot a s =
  if a != s.sa then None
  else
    Some
      { a; cols = Array.copy s.scols; lu = s.slu; etas = [||]; neta = 0;
        max_eta = 64 }

let replace t ~r ~col ~w =
  t.cols.(r) <- col;
  if Float.abs w.(r) < stab_tol || t.neta >= t.max_eta then begin
    refactorize t;
    true
  end
  else begin
    let entries = ref [] in
    Array.iteri
      (fun i v -> if i <> r && Float.abs v > drop_tol then entries := (i, v) :: !entries)
      w;
    let eta = { er = r; epiv = w.(r); entries = Array.of_list !entries } in
    if t.neta = Array.length t.etas then begin
      let grown = Array.make (max 8 (2 * t.neta)) eta in
      Array.blit t.etas 0 grown 0 t.neta;
      t.etas <- grown
    end;
    t.etas.(t.neta) <- eta;
    t.neta <- t.neta + 1;
    Lp_stats.incr Lp_stats.eta_updates;
    false
  end
