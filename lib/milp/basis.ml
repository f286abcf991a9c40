(* Sparse LU basis factorization (Markowitz ordering, threshold
   pivoting) with product-form eta updates. See basis.mli.

   Factor representation: Gaussian elimination with explicit pivot
   order. Step [k] pivots on (row [prow.(k)], basis position
   [pcol.(k)]) with pivot value [pval.(k)]. With M = E_{m-1}...E_0 the
   product of elimination steps and U the permuted upper factor:

     FTRAN  x = B^-1 b : t := M b, then back-substitute U x = t
     BTRAN  y = B^-T c : solve U^T w = c, then y := M^T w

   Basis exchanges append product-form etas on top: B' = B E, so
   FTRAN applies eta inverses after the LU solve (in append order) and
   BTRAN applies eta transpose-inverses before it (reverse order).

   Layout: the factors are flat, CSR-style: step [k]'s entries are
   [start.(k) .. start.(k+1) - 1] of an [int array] of indices and a
   [float array] of values, so the solves are plain loops over unboxed
   floats. L holds the (row, multiplier) pairs eliminated below each
   pivot, U's rows the off-pivot (position, value) entries of each
   pivot row at elimination time, and U's columns the same entries
   regrouped by position as (step, value) for BTRAN. An eta is the
   off-pivot (row, value) entries of its FTRAN column. The factors of
   a basis are fixed by the order every sum runs in, so each order is
   part of the layout:
   - L entries by ascending row;
   - U row entries by ascending position;
   - U column entries by descending step;
   - eta entries by descending row.

   Elimination works on the active submatrix stored as nodes: each
   nonzero is one node on a doubly linked list of its row and one of
   its column, in flat [int]/[float] arrays. Dropped entries and
   retired pivot rows are unlinked at once, and active columns form an
   ascending linked list, so the search visits only live entries. The
   pivots are fixed by the order the search meets entries in, which
   ties between equal cost and magnitude resolve to the first met:
   columns by ascending position, and within a column, most recent
   insertion first, with the initial entries by descending row. A
   fill-in therefore joins the head of its column's list, and a step
   updates the pivot column's rows in that list order. *)

type lu = {
  nsteps : int;
  prow : int array;
  pcol : int array;
  pval : float array;
  lstart : int array; (* step -> L multipliers *)
  lrow : int array;
  lval : float array;
  ustart : int array; (* step -> U row *)
  upos : int array;
  uval : float array;
  cstart : int array; (* position -> U column *)
  cstep : int array;
  cval : float array;
}

type eta = { er : int; epiv : float; idx : int array; vals : float array }

type t = {
  a : Sparse.t;
  cols : int array;
  mutable lu : lu;
  mutable etas : eta array;
  mutable neta : int;
}

exception Singular of string

let drop_tol = 1e-12
let stab_tol = 1e-7

(* Eta updates appended before [replace] refactorizes. *)
let max_eta = 64

(* An append-only list of (index, value) entries, grown by doubling;
   the elimination writes L and U straight into two of them. *)
type buf = { mutable bi : int array; mutable bf : float array; mutable len : int }

let buf_create cap = { bi = Array.make (max cap 1) 0; bf = Array.make (max cap 1) 0.; len = 0 }

let push b i f =
  if b.len = Array.length b.bi then begin
    let bi = Array.make (2 * b.len) 0 and bf = Array.make (2 * b.len) 0. in
    Array.blit b.bi 0 bi 0 b.len;
    Array.blit b.bf 0 bf 0 b.len;
    b.bi <- bi;
    b.bf <- bf
  end;
  b.bi.(b.len) <- i;
  b.bf.(b.len) <- f;
  b.len <- b.len + 1

(* The active submatrix of one factorization. Each nonzero is a node
   [q]: its row [nrow.(q)], position [ncol.(q)] and value [nval.(q)],
   linked into a doubly linked list of its row (from [rhead]) and one
   of its column (from [chead]); [-1] ends a list. Unlinked nodes are
   not reused: [used] only grows. *)
type nodes = {
  mutable nrow : int array;
  mutable ncol : int array;
  mutable nval : float array;
  mutable rnext : int array;
  mutable rprev : int array;
  mutable cnext : int array;
  mutable cprev : int array;
  mutable used : int;
  rhead : int array;
  chead : int array;
}

let nodes_create m cap =
  let ints () = Array.make cap (-1) in
  { nrow = ints (); ncol = ints (); nval = Array.make cap 0.; rnext = ints ();
    rprev = ints (); cnext = ints (); cprev = ints (); used = 0;
    rhead = Array.make (max m 1) (-1); chead = Array.make (max m 1) (-1) }

let grow nd =
  let n = Array.length nd.nrow in
  let ext a x =
    let b = Array.make (2 * n) x in
    Array.blit a 0 b 0 n;
    b
  in
  let ints a = ext a (-1) in
  nd.nrow <- ints nd.nrow;
  nd.ncol <- ints nd.ncol;
  nd.nval <- ext nd.nval 0.;
  nd.rnext <- ints nd.rnext;
  nd.rprev <- ints nd.rprev;
  nd.cnext <- ints nd.cnext;
  nd.cprev <- ints nd.cprev

(* A new node (r, k, v) at the head of row [r]'s and column [k]'s
   lists: a column lists its entries most recent insertion first. *)
let link nd r k v =
  if nd.used = Array.length nd.nrow then grow nd;
  let q = nd.used in
  nd.used <- q + 1;
  nd.nrow.(q) <- r;
  nd.ncol.(q) <- k;
  nd.nval.(q) <- v;
  let h = nd.rhead.(r) in
  nd.rprev.(q) <- -1;
  nd.rnext.(q) <- h;
  if h >= 0 then nd.rprev.(h) <- q;
  nd.rhead.(r) <- q;
  let h = nd.chead.(k) in
  nd.cprev.(q) <- -1;
  nd.cnext.(q) <- h;
  if h >= 0 then nd.cprev.(h) <- q;
  nd.chead.(k) <- q

let unlink_row nd q =
  let p = nd.rprev.(q) and n = nd.rnext.(q) in
  if p >= 0 then nd.rnext.(p) <- n else nd.rhead.(nd.nrow.(q)) <- n;
  if n >= 0 then nd.rprev.(n) <- p

let unlink_col nd q =
  let p = nd.cprev.(q) and n = nd.cnext.(q) in
  if p >= 0 then nd.cnext.(p) <- n else nd.chead.(nd.ncol.(q)) <- n;
  if n >= 0 then nd.cprev.(n) <- p

(* Sort the indices [idx.(0 .. n-1)] ascending, then push each with its
   value from [vals]. An insertion sort: the callers fill [idx] nearly
   ascending, so it takes about n steps. *)
let push_sorted b (idx : int array) vals n =
  for i = 1 to n - 1 do
    let x = idx.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && idx.(!j) > x do
      idx.(!j + 1) <- idx.(!j);
      decr j
    done;
    idx.(!j + 1) <- x
  done;
  for i = 0 to n - 1 do
    push b idx.(i) vals.(idx.(i))
  done

(* One Markowitz-ordered elimination. Returns the factors plus any rows
   and basis positions left unpivoted (structural/numerical
   singularity). *)
let factorize a cols ~threshold =
  Lp_stats.incr Lp_stats.factorizations;
  let m = a.Sparse.m in
  let nnz = ref 0 in
  Array.iter (fun c -> nnz := !nnz + a.Sparse.colptr.(c + 1) - a.Sparse.colptr.(c)) cols;
  let nd = nodes_create m (!nnz + m + 1) in
  let rcount = Array.make (max m 1) 0 and ccount = Array.make (max m 1) 0 in
  let rowact = Array.make (max m 1) true and colact = Array.make (max m 1) true in
  (* Linking in ascending row order lists each column's initial
     entries by descending row. *)
  for k = 0 to m - 1 do
    Sparse.col_iter a cols.(k) (fun i v ->
        if Float.abs v > drop_tol then begin
          link nd i k v;
          rcount.(i) <- rcount.(i) + 1;
          ccount.(k) <- ccount.(k) + 1
        end)
  done;
  (* [single.(k)]: a row's last live entry was in column k when the
     row's count reached 1. Set then and never cleared: a stale flag
     only admits an extra column to the first pass of the search. *)
  let single = Array.make (max m 1) false in
  let flag_single r = if rcount.(r) = 1 then single.(nd.ncol.(nd.rhead.(r))) <- true in
  for i = 0 to m - 1 do
    flag_single i
  done;
  (* the active columns, ascending, as a list with sentinel [m] *)
  let anext = Array.init (m + 1) (fun k -> if k = m then 0 else k + 1) in
  let aprev = Array.init (m + 1) (fun k -> if k = 0 then m else k - 1) in
  let prow = Array.make (max m 1) (-1) and pcol = Array.make (max m 1) (-1) in
  let pval = Array.make (max m 1) 0. in
  let lstart = Array.make (m + 1) 0 and ustart = Array.make (m + 1) 0 in
  let lbuf = buf_create !nnz and ubuf = buf_create !nnz in
  (* a pivot row's values by position, then the multipliers by row *)
  let scratch = Array.make (max m 1) 0. in
  (* the U row's positions, then the L column's rows, to be sorted *)
  let idx = Array.make (max m 1) 0 in
  (* an updated row's node by position, valid where [mark] = [stamp] *)
  let pos = Array.make (max m 1) 0 and mark = Array.make (max m 1) (-1) in
  let stamp = ref 0 in
  let best = ref (-1) and best_cost = ref max_int and best_mag = ref 0. in
  (* Markowitz pivot search: min (r-1)(c-1) among entries passing the
     threshold test against their column's max magnitude, ties to the
     larger magnitude, then to the first met. Columns are taken in
     index order and each column's entries in list order; the scan
     stops at the first entry of cost 0. *)
  let consider k =
    let nval = nd.nval and cnext = nd.cnext in
    let colmax = ref 0. and q = ref nd.chead.(k) in
    while !q >= 0 do
      colmax := Float.max !colmax (Float.abs nval.(!q));
      q := cnext.(!q)
    done;
    if !colmax > drop_tol then begin
      let lim = threshold *. !colmax and c1 = ccount.(k) - 1 in
      q := nd.chead.(k);
      while !q >= 0 do
        let mag = Float.abs nval.(!q) in
        if mag >= lim then begin
          let cost = (rcount.(nd.nrow.(!q)) - 1) * c1 in
          if cost < !best_cost || (cost = !best_cost && mag > !best_mag) then begin
            best_cost := cost;
            best_mag := mag;
            best := !q;
            if cost = 0 then raise Exit
          end
        end;
        q := cnext.(!q)
      done
    end
  in
  (* The counts are exact, so an entry costs 0 only in a column
     singleton or on a row singleton, and every row singleton's column
     is flagged in [single]. Considering just those columns, in index
     order, finds the pivot the full scan would stop at; the full scan
     runs only when none has one. Stale flags only admit extra columns,
     which hold no cost-0 entry. *)
  let pass only_singletons =
    best := -1;
    best_cost := max_int;
    best_mag := 0.;
    let k = ref anext.(m) in
    while !k < m do
      if (not only_singletons) || ccount.(!k) = 1 || single.(!k) then consider !k;
      k := anext.(!k)
    done
  in
  let nsteps = ref 0 in
  (try
     for _step = 0 to m - 1 do
       (try
          pass true;
          pass false
        with Exit -> ());
       if !best < 0 then raise Exit (* singular remainder *);
       let pr = nd.nrow.(!best) and pc = nd.ncol.(!best) and v = nd.nval.(!best) in
       let step = !nsteps in
       incr nsteps;
       prow.(step) <- pr;
       pcol.(step) <- pc;
       pval.(step) <- v;
       (* U row: the pivot row's off-pivot entries, by ascending
          position. A row lists its initial entries by descending
          position, so filling [idx] from the back leaves it nearly
          sorted. *)
       let n = rcount.(pr) - 1 in
       let j = ref n and q = ref nd.rhead.(pr) in
       while !q >= 0 do
         let kc = nd.ncol.(!q) in
         if kc <> pc then begin
           decr j;
           idx.(!j) <- kc;
           scratch.(kc) <- nd.nval.(!q)
         end;
         q := nd.rnext.(!q)
       done;
       push_sorted ubuf idx scratch n;
       ustart.(step + 1) <- ubuf.len;
       let u0 = ustart.(step) and u1 = ubuf.len in
       let upos = ubuf.bi and uval = ubuf.bf in
       (* eliminate the pivot column below/above the pivot, taking its
          rows in list order: a fill-in joins the head of its column's
          list, so this order decides later ties *)
       let nl = ccount.(pc) - 1 in
       let i = ref nl in
       q := nd.chead.(pc);
       while !q >= 0 do
         let qc = !q and r = nd.nrow.(!q) in
         q := nd.cnext.(qc);
         if r <> pr then begin
           let mult = nd.nval.(qc) /. v in
           decr i;
           idx.(!i) <- r;
           scratch.(r) <- mult;
           unlink_row nd qc;
           rcount.(r) <- rcount.(r) - 1;
           incr stamp;
           let qr = ref nd.rhead.(r) in
           while !qr >= 0 do
             pos.(nd.ncol.(!qr)) <- !qr;
             mark.(nd.ncol.(!qr)) <- !stamp;
             qr := nd.rnext.(!qr)
           done;
           for p = u0 to u1 - 1 do
             let kc = upos.(p) in
             if mark.(kc) = !stamp then begin
               let qk = pos.(kc) in
               let nv = nd.nval.(qk) -. (mult *. uval.(p)) in
               if Float.abs nv <= drop_tol then begin
                 unlink_row nd qk;
                 unlink_col nd qk;
                 rcount.(r) <- rcount.(r) - 1;
                 ccount.(kc) <- ccount.(kc) - 1
               end
               else nd.nval.(qk) <- nv
             end
             else begin
               let nv = 0. -. (mult *. uval.(p)) in
               if not (Float.abs nv <= drop_tol) then begin
                 link nd r kc nv;
                 rcount.(r) <- rcount.(r) + 1;
                 ccount.(kc) <- ccount.(kc) + 1
               end
             end
           done;
           flag_single r
         end
       done;
       (* L column: the multipliers, by ascending row *)
       push_sorted lbuf idx scratch nl;
       lstart.(step + 1) <- lbuf.len;
       (* retire the pivot row and column: unlink the row's nodes from
          their columns, after which both lists are dead *)
       rowact.(pr) <- false;
       colact.(pc) <- false;
       anext.(aprev.(pc)) <- anext.(pc);
       aprev.(anext.(pc)) <- aprev.(pc);
       q := nd.rhead.(pr);
       while !q >= 0 do
         let kc = nd.ncol.(!q) in
         if kc <> pc then begin
           unlink_col nd !q;
           ccount.(kc) <- ccount.(kc) - 1
         end;
         q := nd.rnext.(!q)
       done
     done
   with Exit -> ());
  let nsteps = !nsteps in
  let upos = Array.sub ubuf.bi 0 ubuf.len and uval = Array.sub ubuf.bf 0 ubuf.len in
  (* U columns: counted, then filled by descending step *)
  let cstart = Array.make (m + 1) 0 in
  Array.iter (fun c -> cstart.(c + 1) <- cstart.(c + 1) + 1) upos;
  for c = 0 to m - 1 do
    cstart.(c + 1) <- cstart.(c + 1) + cstart.(c)
  done;
  let next = Array.copy cstart in
  let cstep = Array.make ubuf.len 0 and cval = Array.make ubuf.len 0. in
  for k = nsteps - 1 downto 0 do
    for p = ustart.(k) to ustart.(k + 1) - 1 do
      let c = upos.(p) in
      cstep.(next.(c)) <- k;
      cval.(next.(c)) <- uval.(p);
      next.(c) <- next.(c) + 1
    done
  done;
  let bad_rows = ref [] and bad_pos = ref [] in
  for i = m - 1 downto 0 do
    if rowact.(i) then bad_rows := i :: !bad_rows;
    if colact.(i) then bad_pos := i :: !bad_pos
  done;
  ( { nsteps; prow; pcol; pval; lstart; lrow = Array.sub lbuf.bi 0 lbuf.len;
      lval = Array.sub lbuf.bf 0 lbuf.len; ustart; upos; uval; cstart; cstep; cval },
    !bad_rows,
    !bad_pos )

(* FTRAN/BTRAN against the LU factors only (no etas). *)
let ftran_lu lu m b =
  let x = Array.copy b in
  for k = 0 to lu.nsteps - 1 do
    let t = x.(lu.prow.(k)) in
    if t <> 0. then
      for p = lu.lstart.(k) to lu.lstart.(k + 1) - 1 do
        let r = lu.lrow.(p) in
        x.(r) <- x.(r) -. (lu.lval.(p) *. t)
      done
  done;
  let out = Array.make (max m 1) 0. in
  for k = lu.nsteps - 1 downto 0 do
    let s = ref x.(lu.prow.(k)) in
    for p = lu.ustart.(k) to lu.ustart.(k + 1) - 1 do
      s := !s -. (lu.uval.(p) *. out.(lu.upos.(p)))
    done;
    out.(lu.pcol.(k)) <- !s /. lu.pval.(k)
  done;
  if m = 0 then [||] else out

let btran_lu lu m c =
  let z = Array.make (max m 1) 0. in
  for k = 0 to lu.nsteps - 1 do
    let pc = lu.pcol.(k) in
    let s = ref c.(pc) in
    for p = lu.cstart.(pc) to lu.cstart.(pc + 1) - 1 do
      s := !s -. (lu.cval.(p) *. z.(lu.cstep.(p)))
    done;
    z.(k) <- !s /. lu.pval.(k)
  done;
  let w = Array.make (max m 1) 0. in
  for k = 0 to lu.nsteps - 1 do
    w.(lu.prow.(k)) <- z.(k)
  done;
  for k = lu.nsteps - 1 downto 0 do
    let acc = ref w.(lu.prow.(k)) in
    for p = lu.lstart.(k) to lu.lstart.(k + 1) - 1 do
      acc := !acc -. (lu.lval.(p) *. w.(lu.lrow.(p)))
    done;
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
  { a; cols; lu; etas = [||]; neta = 0 }

let bcols t = Array.copy t.cols

let ftran t b =
  let x = ftran_lu t.lu t.a.Sparse.m b in
  for e = 0 to t.neta - 1 do
    let { er; epiv; idx; vals } = t.etas.(e) in
    let xr = x.(er) /. epiv in
    for p = 0 to Array.length idx - 1 do
      let i = idx.(p) in
      x.(i) <- x.(i) -. (vals.(p) *. xr)
    done;
    x.(er) <- xr
  done;
  x

let btran t c =
  let c =
    if t.neta = 0 then c
    else begin
      let c = Array.copy c in
      for e = t.neta - 1 downto 0 do
        let { er; epiv; idx; vals } = t.etas.(e) in
        let acc = ref c.(er) in
        for p = 0 to Array.length idx - 1 do
          acc := !acc -. (vals.(p) *. c.(idx.(p)))
        done;
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
   own scratch) and the live prefix of the eta file (eta records and
   their arrays are never mutated), plus a private copy of the —
   possibly repaired — basic column selection. Neither side
   factorizes: [of_snapshot] reinstates in O(m + neta) and is
   domain-safe, since every field it reads is immutable. It copies the
   eta array because [replace] appends to it in place; a shared array
   would let one reinstated basis overwrite another's etas. The
   snapshot remembers which matrix it factors; reuse against any other
   Sparse.t is refused (the factors would be wrong), so callers fall
   back to a fresh [create]. *)
type snapshot = { sa : Sparse.t; scols : int array; slu : lu; setas : eta array }

let snapshot t =
  { sa = t.a; scols = Array.copy t.cols; slu = t.lu; setas = Array.sub t.etas 0 t.neta }

let of_snapshot a s =
  if a != s.sa then None
  else
    Some
      { a; cols = Array.copy s.scols; lu = s.slu; etas = Array.copy s.setas;
        neta = Array.length s.setas }

let replace t ~r ~col ~w =
  t.cols.(r) <- col;
  if Float.abs w.(r) < stab_tol || t.neta >= max_eta then begin
    refactorize t;
    true
  end
  else begin
    let keep i = i <> r && Float.abs w.(i) > drop_tol in
    let n = ref 0 in
    for i = 0 to Array.length w - 1 do
      if keep i then incr n
    done;
    let idx = Array.make !n 0 and vals = Array.make !n 0. in
    (* by descending row, the order BTRAN sums in *)
    let p = ref 0 in
    for i = Array.length w - 1 downto 0 do
      if keep i then begin
        idx.(!p) <- i;
        vals.(!p) <- w.(i);
        incr p
      end
    done;
    let eta = { er = r; epiv = w.(r); idx; vals } in
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
