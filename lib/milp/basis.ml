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

(* The work arrays of one basis's solves, each of length [max m 1]:
   [v1] and [v2] take the eta pass's copies of the inputs (FTRAN's L
   pass runs in [v1]), and [z1] and [z2] the U^T images by step. *)
type work = { v1 : float array; v2 : float array; z1 : float array; z2 : float array }

type t = {
  a : Sparse.t;
  cols : int array;
  mutable lu : lu;
  mutable etas : eta array;
  mutable neta : int;
  mutable work : work option;
      (* allocated by the first solve and kept across [refactorize]
         (the row count never changes); never part of a snapshot *)
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
   not reused: [used] only grows.

   The list code and [factorize]'s loops read and write unchecked. The
   invariant: the seven node arrays have one length, which [link] grows
   before it writes node [used], so every node on a list is below it;
   rows and positions are below [m] (a basis column's row indices are,
   and [create] and [replace] take only columns below [n]), in range of
   [rhead], [chead] and every per-row or per-position work array,
   which hold [max m 1] entries. *)
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
  Array.unsafe_set nd.nrow q r;
  Array.unsafe_set nd.ncol q k;
  Array.unsafe_set nd.nval q v;
  let h = Array.unsafe_get nd.rhead r in
  Array.unsafe_set nd.rprev q (-1);
  Array.unsafe_set nd.rnext q h;
  if h >= 0 then Array.unsafe_set nd.rprev h q;
  Array.unsafe_set nd.rhead r q;
  let h = Array.unsafe_get nd.chead k in
  Array.unsafe_set nd.cprev q (-1);
  Array.unsafe_set nd.cnext q h;
  if h >= 0 then Array.unsafe_set nd.cprev h q;
  Array.unsafe_set nd.chead k q

let unlink_row nd q =
  let p = Array.unsafe_get nd.rprev q and n = Array.unsafe_get nd.rnext q in
  if p >= 0 then Array.unsafe_set nd.rnext p n
  else Array.unsafe_set nd.rhead (Array.unsafe_get nd.nrow q) n;
  if n >= 0 then Array.unsafe_set nd.rprev n p

let unlink_col nd q =
  let p = Array.unsafe_get nd.cprev q and n = Array.unsafe_get nd.cnext q in
  if p >= 0 then Array.unsafe_set nd.cnext p n
  else Array.unsafe_set nd.chead (Array.unsafe_get nd.ncol q) n;
  if n >= 0 then Array.unsafe_set nd.cprev n p

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
    let nval = nd.nval and cnext = nd.cnext and nrow = nd.nrow in
    let colmax = ref 0. and q = ref nd.chead.(k) in
    while !q >= 0 do
      colmax := Float.max !colmax (Float.abs (Array.unsafe_get nval !q));
      q := Array.unsafe_get cnext !q
    done;
    if !colmax > drop_tol then begin
      let lim = threshold *. !colmax and c1 = ccount.(k) - 1 in
      q := nd.chead.(k);
      while !q >= 0 do
        let mag = Float.abs (Array.unsafe_get nval !q) in
        if mag >= lim then begin
          let cost = (Array.unsafe_get rcount (Array.unsafe_get nrow !q) - 1) * c1 in
          if cost < !best_cost || (cost = !best_cost && mag > !best_mag) then begin
            best_cost := cost;
            best_mag := mag;
            best := !q;
            if cost = 0 then raise Exit
          end
        end;
        q := Array.unsafe_get cnext !q
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
         let kc = Array.unsafe_get nd.ncol !q in
         if kc <> pc then begin
           decr j;
           Array.unsafe_set idx !j kc;
           Array.unsafe_set scratch kc (Array.unsafe_get nd.nval !q)
         end;
         q := Array.unsafe_get nd.rnext !q
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
         let qc = !q in
         let r = Array.unsafe_get nd.nrow qc in
         q := Array.unsafe_get nd.cnext qc;
         if r <> pr then begin
           let mult = Array.unsafe_get nd.nval qc /. v in
           decr i;
           Array.unsafe_set idx !i r;
           Array.unsafe_set scratch r mult;
           unlink_row nd qc;
           rcount.(r) <- rcount.(r) - 1;
           incr stamp;
           let qr = ref nd.rhead.(r) in
           while !qr >= 0 do
             let kc = Array.unsafe_get nd.ncol !qr in
             Array.unsafe_set pos kc !qr;
             Array.unsafe_set mark kc !stamp;
             qr := Array.unsafe_get nd.rnext !qr
           done;
           (* [upos]/[uval] hold the U row pushed above, at [u0 .. u1-1];
              its positions are below [m] *)
           for p = u0 to u1 - 1 do
             let kc = Array.unsafe_get upos p and u = Array.unsafe_get uval p in
             if Array.unsafe_get mark kc = !stamp then begin
               let qk = Array.unsafe_get pos kc in
               let nv = Array.unsafe_get nd.nval qk -. (mult *. u) in
               if Float.abs nv <= drop_tol then begin
                 unlink_row nd qk;
                 unlink_col nd qk;
                 rcount.(r) <- rcount.(r) - 1;
                 Array.unsafe_set ccount kc (Array.unsafe_get ccount kc - 1)
               end
               else Array.unsafe_set nd.nval qk nv
             end
             else begin
               let nv = 0. -. (mult *. u) in
               if not (Float.abs nv <= drop_tol) then begin
                 link nd r kc nv;
                 rcount.(r) <- rcount.(r) + 1;
                 Array.unsafe_set ccount kc (Array.unsafe_get ccount kc + 1)
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
         let kc = Array.unsafe_get nd.ncol !q in
         if kc <> pc then begin
           unlink_col nd !q;
           Array.unsafe_set ccount kc (Array.unsafe_get ccount kc - 1)
         end;
         q := Array.unsafe_get nd.rnext !q
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
  (* unchecked: [upos] holds positions below [m], and [next.(c)] stays
     below [cstart.(c + 1)] <= [ubuf.len] *)
  for k = nsteps - 1 downto 0 do
    for p = ustart.(k) to ustart.(k + 1) - 1 do
      let c = Array.unsafe_get upos p in
      let at = Array.unsafe_get next c in
      Array.unsafe_set cstep at k;
      Array.unsafe_set cval at (Array.unsafe_get uval p);
      Array.unsafe_set next c (at + 1)
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

(* FTRAN/BTRAN against the LU factors only (no etas), into the caller's
   [out]. Every factorization [build_lu] returns pivots each row and
   each position, so every entry of [out] (and of the work arrays
   indexed by step) is written before it is read: none needs clearing.

   FTRAN runs its L pass in place on [x], which holds the input, then
   back-substitutes U into [out]. Its inner loops read and write
   unchecked, as [btran_lu2]'s do (see there): the positions lie between
   offsets [factorize] wrote, and the stored rows and positions are
   below [m], in range of [out] and of [x], whose length [ftran] and
   [residual_ok] keep at least [m]. With bounds checks FTRAN took 1.7x
   as long (same A/B as [btran_lu2]'s). *)
let ftran_lu lu x out =
  for k = 0 to lu.nsteps - 1 do
    let t = x.(lu.prow.(k)) in
    if t <> 0. then
      for p = lu.lstart.(k) to lu.lstart.(k + 1) - 1 do
        let r = Array.unsafe_get lu.lrow p in
        Array.unsafe_set x r (Array.unsafe_get x r -. (Array.unsafe_get lu.lval p *. t))
      done
  done;
  for k = lu.nsteps - 1 downto 0 do
    let s = ref x.(lu.prow.(k)) in
    for p = lu.ustart.(k) to lu.ustart.(k + 1) - 1 do
      s :=
        !s -. (Array.unsafe_get lu.uval p *. Array.unsafe_get out (Array.unsafe_get lu.upos p))
    done;
    out.(lu.pcol.(k)) <- !s /. lu.pval.(k)
  done

(* BTRAN: the U^T images of [c] by step in [z], then the rows of [out].
   The inner loops read unchecked, as [btran_lu2]'s do (see there). *)
let btran_lu lu c z out =
  for k = 0 to lu.nsteps - 1 do
    let pc = lu.pcol.(k) in
    let s = ref c.(pc) in
    for p = lu.cstart.(pc) to lu.cstart.(pc + 1) - 1 do
      let v = Array.unsafe_get lu.cval p and i = Array.unsafe_get lu.cstep p in
      s := !s -. (v *. Array.unsafe_get z i)
    done;
    z.(k) <- !s /. lu.pval.(k)
  done;
  for k = 0 to lu.nsteps - 1 do
    out.(lu.prow.(k)) <- z.(k)
  done;
  for k = lu.nsteps - 1 downto 0 do
    let r = lu.prow.(k) in
    let acc = ref out.(r) in
    for p = lu.lstart.(k) to lu.lstart.(k + 1) - 1 do
      let v = Array.unsafe_get lu.lval p and i = Array.unsafe_get lu.lrow p in
      acc := !acc -. (v *. Array.unsafe_get out i)
    done;
    out.(r) <- !acc
  done

(* Two BTRANs against the LU factors in one sweep: each output is the
   one [btran_lu] gives on its input, bit for bit, because every sum
   runs over the same entries in the same order. The two accumulator
   chains are independent, so they overlap, and the index loads are
   shared. The inner loops read unchecked: their positions lie between
   the offsets [factorize] wrote, and the indices stored there are
   steps below [nsteps] (U columns) or rows below [m] (L), all in range
   of the work arrays and outputs, whose length the callers keep at
   least [m]. With bounds checks the sweep took 1.8x as long
   (in-process A/B, 200-row basis with 40 etas, one Xeon core). *)
let btran_lu2 lu c1 c2 z1 z2 out1 out2 =
  for k = 0 to lu.nsteps - 1 do
    let pc = lu.pcol.(k) in
    let s1 = ref c1.(pc) and s2 = ref c2.(pc) in
    for p = lu.cstart.(pc) to lu.cstart.(pc + 1) - 1 do
      let v = Array.unsafe_get lu.cval p and i = Array.unsafe_get lu.cstep p in
      s1 := !s1 -. (v *. Array.unsafe_get z1 i);
      s2 := !s2 -. (v *. Array.unsafe_get z2 i)
    done;
    z1.(k) <- !s1 /. lu.pval.(k);
    z2.(k) <- !s2 /. lu.pval.(k)
  done;
  for k = 0 to lu.nsteps - 1 do
    out1.(lu.prow.(k)) <- z1.(k);
    out2.(lu.prow.(k)) <- z2.(k)
  done;
  for k = lu.nsteps - 1 downto 0 do
    let r = lu.prow.(k) in
    let a1 = ref out1.(r) and a2 = ref out2.(r) in
    for p = lu.lstart.(k) to lu.lstart.(k + 1) - 1 do
      let v = Array.unsafe_get lu.lval p and i = Array.unsafe_get lu.lrow p in
      a1 := !a1 -. (v *. Array.unsafe_get out1 i);
      a2 := !a2 -. (v *. Array.unsafe_get out2 i)
    done;
    out1.(r) <- !a1;
    out2.(r) <- !a2
  done

(* Residual check of a fresh factorization: FTRAN of basis column 0
   must reproduce the unit vector e_0. *)
let residual_ok a lu cols =
  let m = a.Sparse.m in
  if m = 0 then true
  else begin
    let b = Array.make m 0. and x = Array.make m 0. in
    Sparse.axpy_col a cols.(0) 1. b;
    ftran_lu lu b x;
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

(* [factorize] reads the basis columns unchecked, so they are checked
   here: [m] of them, each below [n]. *)
let check_cols name a cols =
  if Array.length cols <> a.Sparse.m then invalid_arg name;
  Array.iter (fun c -> if c < 0 || c >= a.Sparse.n then invalid_arg name) cols

let create a bcols =
  check_cols "Basis.create" a bcols;
  let cols = Array.copy bcols in
  let lu = build_lu a cols in
  { a; cols; lu; etas = [||]; neta = 0; work = None }

let bcols t = Array.copy t.cols

let work t =
  match t.work with
  | Some w -> w
  | None ->
    let make () = Array.make (max t.a.Sparse.m 1) 0. in
    let w = { v1 = make (); v2 = make (); z1 = make (); z2 = make () } in
    t.work <- Some w;
    w

(* The solves read and write unchecked (see [ftran_lu] and [btran_lu2]),
   so every input and output must hold at least [m] entries. Each input
   is read in full (or copied) before its output is written, so an
   output may be its own input. *)
let check name m c out =
  if Array.length c < m || Array.length out < m then invalid_arg name

(* The eta loops read unchecked too: an eta's [idx] and [vals] have one
   length, and its indices are rows below [m] ([replace] takes only a
   pivot column of length [m]), in range of every array they index. *)
let ftran t b ~out =
  let m = t.a.Sparse.m in
  check "Basis.ftran" m b out;
  let x = (work t).v1 in
  Array.blit b 0 x 0 m;
  ftran_lu t.lu x out;
  for e = 0 to t.neta - 1 do
    let { er; epiv; idx; vals } = t.etas.(e) in
    let xr = out.(er) /. epiv in
    for p = 0 to Array.length idx - 1 do
      let i = Array.unsafe_get idx p in
      Array.unsafe_set out i (Array.unsafe_get out i -. (Array.unsafe_get vals p *. xr))
    done;
    out.(er) <- xr
  done

let btran t c ~out =
  let m = t.a.Sparse.m in
  check "Basis.btran" m c out;
  let w = work t in
  if t.neta = 0 then btran_lu t.lu c w.z1 out
  else begin
    let v = w.v1 in
    Array.blit c 0 v 0 m;
    for e = t.neta - 1 downto 0 do
      let { er; epiv; idx; vals } = t.etas.(e) in
      let acc = ref v.(er) in
      for p = 0 to Array.length idx - 1 do
        let i = Array.unsafe_get idx p in
        acc := !acc -. (Array.unsafe_get vals p *. Array.unsafe_get v i)
      done;
      v.(er) <- !acc /. epiv
    done;
    btran_lu t.lu v w.z1 out
  end

let btran2 t c1 c2 ~out1 ~out2 =
  let m = t.a.Sparse.m in
  check "Basis.btran2" m c1 out1;
  check "Basis.btran2" m c2 out2;
  if m > 0 && out1 == out2 then invalid_arg "Basis.btran2";
  let w = work t in
  if t.neta = 0 then btran_lu2 t.lu c1 c2 w.z1 w.z2 out1 out2
  else begin
    let v1 = w.v1 and v2 = w.v2 in
    Array.blit c1 0 v1 0 m;
    Array.blit c2 0 v2 0 m;
    for e = t.neta - 1 downto 0 do
      let { er; epiv; idx; vals } = t.etas.(e) in
      let a1 = ref v1.(er) and a2 = ref v2.(er) in
      for p = 0 to Array.length idx - 1 do
        let i = Array.unsafe_get idx p and v = Array.unsafe_get vals p in
        a1 := !a1 -. (v *. Array.unsafe_get v1 i);
        a2 := !a2 -. (v *. Array.unsafe_get v2 i)
      done;
      v1.(er) <- !a1 /. epiv;
      v2.(er) <- !a2 /. epiv
    done;
    btran_lu2 t.lu v1 v2 w.z1 w.z2 out1 out2
  end

let refactorize t =
  t.lu <- build_lu t.a t.cols;
  t.etas <- [||];
  t.neta <- 0

(* A snapshot shares the immutable [lu] value (replaced wholesale on
   refactorization, never mutated in place) and the live prefix of the
   eta file (eta records and their arrays are never mutated), plus a
   private copy of the — possibly repaired — basic column selection.
   The solves' work arrays are never part of it: FTRAN/BTRAN write only
   the [work] of the basis they run on, and each reinstated basis gets
   its own on its first solve. Neither side factorizes: [of_snapshot]
   reinstates in O(m + neta) and is domain-safe, since every field it
   reads is immutable. It copies the eta array because [replace]
   appends to it in place; a shared array would let one reinstated
   basis overwrite another's etas. The snapshot remembers which matrix
   it factors; reuse against any other Sparse.t is refused (the factors
   would be wrong), so callers fall back to a fresh [create]. *)
type snapshot = { sa : Sparse.t; scols : int array; slu : lu; setas : eta array }

let snapshot t =
  { sa = t.a; scols = Array.copy t.cols; slu = t.lu; setas = Array.sub t.etas 0 t.neta }

let of_snapshot a s =
  if a != s.sa then None
  else
    Some
      { a; cols = Array.copy s.scols; lu = s.slu; etas = Array.copy s.setas;
        neta = Array.length s.setas; work = None }

let replace t ~r ~col ~w =
  let m = t.a.Sparse.m in
  if Array.length w <> m || r < 0 || r >= m || col < 0 || col >= t.a.Sparse.n then
    invalid_arg "Basis.replace";
  t.cols.(r) <- col;
  if Float.abs w.(r) < stab_tol || t.neta >= max_eta then begin
    refactorize t;
    true
  end
  else begin
    (* The eta keeps every row but [r] where |w_i| passes the drop
       tolerance, by descending row, the order BTRAN sums in. Both
       loops run over [w]'s [m] entries, and the second writes as many
       entries as the first counted, so they read and write unchecked. *)
    let n = ref 0 in
    for i = 0 to m - 1 do
      if i <> r && Float.abs (Array.unsafe_get w i) > drop_tol then incr n
    done;
    let idx = Array.make !n 0 and vals = Array.make !n 0. in
    let p = ref 0 in
    for i = m - 1 downto 0 do
      let wi = Array.unsafe_get w i in
      if i <> r && Float.abs wi > drop_tol then begin
        Array.unsafe_set idx !p i;
        Array.unsafe_set vals !p wi;
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
