(* Tests for the revised simplex engine: a random-MILP differential
   against the legacy dense tableau, the dual-simplex warm-start
   property (a child LP warm-started from its parent's basis agrees
   with a cold solve), the Bland anti-cycling fallback on Beale's
   classical cycling LP, the branch-and-bound heap tie-break, and the
   LU basis itself: snapshots that carry their eta file, and FTRAN/BTRAN
   residuals over random bases through create and eta-cap
   refactorizations. *)

let check_float ?(eps = 1e-6) what expected got =
  Alcotest.(check (float eps)) what expected got

(* The basis solves into fresh outputs, as long as their inputs. *)
let ftran bas v =
  let out = Array.make (Array.length v) 0. in
  Milp.Basis.ftran bas v ~out;
  out

let btran bas v =
  let out = Array.make (Array.length v) 0. in
  Milp.Basis.btran bas v ~out;
  out

let btran2 bas a b =
  let y1 = Array.make (Array.length a) 0. and y2 = Array.make (Array.length b) 0. in
  Milp.Basis.btran2 bas a b ~out1:y1 ~out2:y2;
  (y1, y2)

(* Random MILP in the shape of the vertex-oracle suite, plus integer
   variables: max c.x, rows x <= rhs with rhs >= 0 (origin feasible),
   0 <= x <= ub (bounded). *)
let random_milp case =
  let rng = Random.State.make [| 0xbea1e; case |] in
  let n = 2 + (case mod 5) in
  let m = 1 + Random.State.int rng (n + 2) in
  let nint = Random.State.int rng (n + 1) in
  let mdl = Milp.Model.create () in
  let vars =
    Array.init n (fun i ->
        let ub = 1. +. Random.State.float rng 9. in
        if i < nint then
          Milp.Model.integer ~ub:(Float.round ub) mdl (Printf.sprintf "z%d" i)
        else Milp.Model.continuous ~ub mdl (Printf.sprintf "x%d" i))
  in
  for _ = 1 to m do
    let terms =
      Array.to_list
        (Array.map
           (fun (v : Milp.Model.var) ->
             (Random.State.float rng 4. -. 2., v.Milp.Model.vid))
           vars)
    in
    Milp.Model.add_cons mdl (Milp.Linexpr.of_terms terms) Milp.Model.Le
      (Random.State.float rng 8.)
  done;
  Milp.Model.set_objective mdl Milp.Model.Maximize
    (Milp.Linexpr.of_terms
       (Array.to_list
          (Array.map
             (fun (v : Milp.Model.var) ->
               (Random.State.float rng 10. -. 5., v.Milp.Model.vid))
             vars)));
  mdl

(* Differential: the revised and dense engines must agree on status and
   objective across random MILPs, through the full solver stack
   (presolve + branch-and-bound + warm starts on the revised side).
   Certification is on (the solver default), so every answer is also
   audited against the original model — a certificate failure would
   downgrade the status and break the status comparison below; the
   explicit per-solve check makes the audit verdict part of the
   differential contract. *)
let test_differential () =
  for case = 0 to 63 do
    let mdl = random_milp case in
    let solve dense =
      let engine = if dense then Milp.Simplex.Dense else Milp.Simplex.Revised in
      let sol =
        Milp.Solver.solve ~options:{ Milp.Solver.default_options with engine } mdl
      in
      (match (Milp.Solver.has_point sol, sol.Milp.Solver.certificate) with
      | true, None -> Alcotest.failf "case %d: no certificate issued" case
      | true, Some c ->
        if not c.Milp.Certify.ok then
          Alcotest.failf "case %d (%s): certificate failed: %s" case
            (if dense then "dense" else "revised")
            (String.concat "; " c.Milp.Certify.failures)
      | false, _ -> ());
      sol
    in
    let r = solve false and d = solve true in
    if r.Milp.Solver.status <> d.Milp.Solver.status then
      Alcotest.failf "case %d: revised %s vs dense %s" case
        (Format.asprintf "%a" Milp.Solver.pp_status r.Milp.Solver.status)
        (Format.asprintf "%a" Milp.Solver.pp_status d.Milp.Solver.status);
    match r.Milp.Solver.status with
    | Milp.Solver.Optimal ->
      let eps = 1e-6 *. (1. +. Float.abs d.Milp.Solver.obj) in
      check_float ~eps
        (Printf.sprintf "case %d objective" case)
        d.Milp.Solver.obj r.Milp.Solver.obj;
      (match
         (Milp.Certify.check_compiled ~tols:(Milp.Certify.gate_tolerances ~int_tol:1e-6)
            (Milp.Certify.compile mdl) r.Milp.Solver.values)
           .Milp.Certify.failure
       with
      | None -> ()
      | Some reason ->
        Alcotest.failf "case %d: revised point infeasible: %s" case reason)
    | _ -> ()
  done

(* Warm-start property: branch like B&B does (tighten one bound of a
   fractional-ish variable), then the child solved dual-warm from the
   parent's optimal basis must agree with a cold solve of the child. *)
let test_warm_start_property () =
  let exercised = ref 0 in
  for case = 0 to 39 do
    let rng = Random.State.make [| 0x3a9; case |] in
    let mdl = random_milp case in
    let nv = Milp.Model.num_vars mdl in
    let prep = Milp.Simplex.prepare mdl in
    match Milp.Simplex.solve_prepared prep with
    | Milp.Simplex.Optimal { values; _ }, Some parent ->
      let lb, ub = Milp.Model.bounds mdl in
      let lb = Array.copy lb and ub = Array.copy ub in
      let id = Random.State.int rng nv in
      let x = values.(id) in
      (* branch down or up around the parent's value *)
      if Random.State.bool rng then ub.(id) <- Float.max lb.(id) (Float.floor x)
      else lb.(id) <- Float.min ub.(id) (Float.ceil x);
      let attempts0 = Milp.Lp_stats.read Milp.Lp_stats.warm_attempts () in
      let warm, _ = Milp.Simplex.solve_prepared ~lb ~ub ~warm:parent prep in
      Alcotest.(check bool)
        (Printf.sprintf "case %d warm start attempted" case)
        true
        (Milp.Lp_stats.read Milp.Lp_stats.warm_attempts () > attempts0);
      let cold, _ = Milp.Simplex.solve_prepared ~lb ~ub prep in
      (match (warm, cold) with
      | ( Milp.Simplex.Optimal { obj = wobj; _ },
          Milp.Simplex.Optimal { obj = cobj; _ } ) ->
        incr exercised;
        let eps = 1e-6 *. (1. +. Float.abs cobj) in
        check_float ~eps
          (Printf.sprintf "case %d warm vs cold objective" case)
          cobj wobj
      | Milp.Simplex.Infeasible, Milp.Simplex.Infeasible -> ()
      | _ ->
        Alcotest.failf "case %d: warm and cold child solves disagree" case)
    | _ -> Alcotest.failf "case %d: parent LP not optimal with basis" case
  done;
  Alcotest.(check bool) "some optimal children exercised" true (!exercised > 20)

(* Beale's classical cycling LP: Dantzig pricing cycles forever on it
   at a degenerate vertex. min -3/4 a + 150 b - 1/50 c + 6 d subject to
   two degenerate rows and c <= 1; the optimum is -1/20 at
   a = 1/25, c = 1. *)
let beale () =
  let mdl = Milp.Model.create () in
  let a = Milp.Model.continuous mdl "a" in
  let b = Milp.Model.continuous mdl "b" in
  let c = Milp.Model.continuous mdl "c" in
  let d = Milp.Model.continuous mdl "d" in
  let t l = Milp.Linexpr.of_terms (List.map (fun (k, v) -> (k, v.Milp.Model.vid)) l) in
  Milp.Model.add_cons mdl
    (t [ (0.25, a); (-60., b); (-0.04, c); (9., d) ])
    Milp.Model.Le 0.;
  Milp.Model.add_cons mdl
    (t [ (0.5, a); (-90., b); (-0.02, c); (3., d) ])
    Milp.Model.Le 0.;
  Milp.Model.add_cons mdl (t [ (1., c) ]) Milp.Model.Le 1.;
  Milp.Model.set_objective mdl Milp.Model.Minimize
    (t [ (-0.75, a); (150., b); (-0.02, c); (6., d) ]);
  mdl

let test_anti_cycling () =
  let mdl = beale () in
  let prep = Milp.Simplex.prepare mdl in
  (* a degen_limit beyond the iteration budget disables the Bland
     fallback: Dantzig pricing must then cycle until the budget runs
     out, which is exactly what the fallback exists to prevent *)
  (match Milp.Simplex.solve_prepared ~degen_limit:max_int prep with
  | Milp.Simplex.Iter_limit, _ -> ()
  | _ -> Alcotest.fail "expected a cycle without the Bland fallback");
  (* degen_limit 0: the first degenerate pivot flips to Bland's rule,
     which is guaranteed to terminate; the default limit must also stay
     well inside the iteration budget *)
  List.iter
    (fun degen_limit ->
      match Milp.Simplex.solve_prepared ?degen_limit prep with
      | Milp.Simplex.Optimal { obj; _ }, _ ->
        check_float
          (Printf.sprintf "beale optimum (degen_limit %s)"
             (match degen_limit with Some k -> string_of_int k | None -> "default"))
          (-0.05) obj
      | Milp.Simplex.Iter_limit, _ ->
        Alcotest.failf "cycled under degen_limit %s"
          (match degen_limit with Some k -> string_of_int k | None -> "default")
      | _ -> Alcotest.fail "expected optimal")
    [ Some 0; Some 5; None ]

(* Regression for the dual Bland fallback: with degen_limit 0 the
   first degenerate pivot flips both ratio tests to Bland mode, which
   must still honour the dual min-ratio requirement — a non-min-ratio
   dual pivot breaks dual feasibility and silently understates the
   objective. Warm-started children under forced Bland must therefore
   agree with default cold solves. *)
let test_dual_bland_min_ratio () =
  for case = 0 to 39 do
    let rng = Random.State.make [| 0xb1a4d; case |] in
    let mdl = random_milp case in
    let nv = Milp.Model.num_vars mdl in
    let prep = Milp.Simplex.prepare mdl in
    match Milp.Simplex.solve_prepared prep with
    | Milp.Simplex.Optimal { values; _ }, Some parent ->
      let lb, ub = Milp.Model.bounds mdl in
      let lb = Array.copy lb and ub = Array.copy ub in
      let id = Random.State.int rng nv in
      let x = values.(id) in
      if Random.State.bool rng then ub.(id) <- Float.max lb.(id) (Float.floor x)
      else lb.(id) <- Float.min ub.(id) (Float.ceil x);
      let warm, _ =
        Milp.Simplex.solve_prepared ~lb ~ub ~degen_limit:0 ~warm:parent prep
      in
      let cold, _ = Milp.Simplex.solve_prepared ~lb ~ub prep in
      (match (warm, cold) with
      | ( Milp.Simplex.Optimal { obj = wobj; _ },
          Milp.Simplex.Optimal { obj = cobj; _ } ) ->
        let eps = 1e-6 *. (1. +. Float.abs cobj) in
        check_float ~eps
          (Printf.sprintf "case %d bland warm vs cold objective" case)
          cobj wobj
      | Milp.Simplex.Infeasible, Milp.Simplex.Infeasible -> ()
      | _ -> Alcotest.failf "case %d: bland warm and cold disagree" case)
    | _ -> Alcotest.failf "case %d: parent LP not optimal with basis" case
  done

(* Basis repair: a structurally singular selection (duplicate column)
   must be repaired with slack columns rather than raise, the repair
   must be visible through [bcols], and the repaired factorization must
   actually solve. *)
let test_singular_basis_repair () =
  let mdl = Milp.Model.create () in
  let x = Milp.Model.continuous ~ub:1. mdl "x" in
  let t l =
    Milp.Linexpr.of_terms (List.map (fun (k, v) -> (k, v.Milp.Model.vid)) l)
  in
  Milp.Model.add_cons mdl (t [ (1., x) ]) Milp.Model.Le 1.;
  Milp.Model.add_cons mdl (t [ (1., x) ]) Milp.Model.Le 2.;
  Milp.Model.set_objective mdl Milp.Model.Maximize (t [ (1., x) ]);
  let sp = Milp.Sparse.of_model mdl in
  (* both positions claim structural column 0: singular, needs repair *)
  let bas = Milp.Basis.create sp [| 0; 0 |] in
  let cols = Milp.Basis.bcols bas in
  Alcotest.(check bool) "repaired columns distinct" true (cols.(0) <> cols.(1));
  let rhs = Array.make 2 0. in
  Milp.Sparse.axpy_col sp cols.(0) 1. rhs;
  let sol = ftran bas rhs in
  check_float "repaired basis solves: e_0 (0)" 1. sol.(0);
  check_float "repaired basis solves: e_0 (1)" 0. sol.(1)

let test_heap_tiebreak () =
  let better = Milp.Branch_bound.better_key in
  Alcotest.(check bool) "strictly better bound wins" true (better (2., 0) (1., 9));
  Alcotest.(check bool) "worse bound loses" false (better (1., 9) (2., 0));
  Alcotest.(check bool) "exact tie: deeper wins" true (better (1., 3) (1., 2));
  Alcotest.(check bool) "exact tie: shallower loses" false (better (1., 2) (1., 3));
  (* last-bit noise in the LP objective must not defeat the tiebreak *)
  let noisy = 1. +. 1e-13 in
  Alcotest.(check bool) "noise tie: deeper wins" true (better (1., 3) (noisy, 2));
  Alcotest.(check bool) "noise tie: shallower loses" false (better (noisy, 2) (1., 3));
  Alcotest.(check bool) "infinite root beats finite" true
    (better (infinity, 0) (5., 9));
  Alcotest.(check bool) "equal infinities: deeper wins" true
    (better (infinity, 1) (infinity, 0))

(* The solver reports optimal-basis statuses for pure LPs, lifted back
   through presolve to original variable ids. *)
let test_solver_statuses () =
  let mdl = random_milp 2 in
  (* strip integrality by rebuilding as LP via bounds-only relaxation:
     case 2 of random_milp has nint variables; solve its LP relaxation
     directly through the solver by relaxing integers is not exposed, so
     use a case with no integer variables instead. *)
  let rec find_lp case =
    let m = random_milp case in
    if Milp.Model.num_int_vars m = 0 then m else find_lp (case + 7)
  in
  let mdl = if Milp.Model.num_int_vars mdl = 0 then mdl else find_lp 3 in
  let sol = Milp.Solver.solve mdl in
  Alcotest.(check int)
    "statuses cover all original variables"
    (Milp.Model.num_vars mdl)
    (Array.length sol.Milp.Solver.statuses)

(* --- LU basis: snapshots and factorization residuals ------------------ *)

(* A random basis problem with [m] rows. The initial selection is
   block lower triangular under a random row order: slack columns
   (column singletons), two-entry columns whose diagonal row is left a
   row singleton once the earlier ones are eliminated, and a trailing
   dense nucleus of up to m/3 rows, so a factorization takes both the
   singleton pass and the full Markowitz scan. A quarter of the
   selections repeat a column, which is singular and needs the slack
   repair. [m] extra sparse structural columns stay non-basic for
   exchanges. [nucleus] and [singular] override the drawn nucleus size
   and repeat; a triangular position is a slack with odds
   [slack_thirds] in 3. *)
(* The standard form of the rows [coef] (one [<= 1] row each, over
   continuous variables). *)
let sparse_of_rows coef =
  let nv = if coef = [||] then 0 else Array.length coef.(0) in
  let mdl = Milp.Model.create () in
  let vars = Array.init nv (fun j -> Milp.Model.continuous mdl (Printf.sprintf "x%d" j)) in
  Array.iter
    (fun row ->
      let terms = ref [] in
      Array.iteri
        (fun j v -> if v <> 0. then terms := (v, vars.(j).Milp.Model.vid) :: !terms)
        row;
      Milp.Model.add_cons mdl (Milp.Linexpr.of_terms !terms) Milp.Model.Le 1.)
    coef;
  Milp.Sparse.of_model mdl

let random_basis ?nucleus ?(slack_thirds = 1) ?singular seed =
  let rng = Random.State.make [| 0xfac7; seed |] in
  let m = 4 + Random.State.int rng 21 in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done
  in
  let value () =
    let v = 0.5 +. Random.State.float rng 1.5 in
    if Random.State.bool rng then v else -.v
  in
  let order = Array.init m Fun.id in
  shuffle order;
  let drawn = Random.State.int rng ((m / 3) + 1) in
  let nucleus = Option.value nucleus ~default:drawn in
  let tri = m - nucleus in
  (* basic position k: None for the slack of row order.(k), else the
     (row, value) entries of a structural column *)
  let basic =
    Array.init m (fun k ->
        if k >= tri then
          Some (List.init nucleus (fun i -> (order.(tri + i), value ())))
        else if Random.State.int rng 3 < slack_thirds then None
        else if k = m - 1 then Some [ (order.(k), value ()) ]
        else
          let below = order.(k + 1 + Random.State.int rng (m - k - 1)) in
          Some [ (order.(k), value ()); (below, value ()) ])
  in
  let extra =
    List.init m (fun _ ->
        List.init (1 + Random.State.int rng 3) (fun _ -> (Random.State.int rng m, value ())))
  in
  let structural = List.filter_map Fun.id (Array.to_list basic) @ extra in
  let nv = List.length structural in
  let coef = Array.make_matrix m nv 0. in
  List.iteri (fun j col -> List.iter (fun (i, v) -> coef.(i).(j) <- v) col) structural;
  let sp = sparse_of_rows coef in
  let next = ref 0 in
  let bcols =
    Array.mapi
      (fun k col ->
        match col with
        | None -> nv + order.(k)
        | Some _ ->
          incr next;
          !next - 1)
      basic
  in
  shuffle bcols;
  let dup = Random.State.int rng 4 = 0 in
  if Option.value singular ~default:dup then bcols.(1) <- bcols.(0);
  (sp, bcols, rng)

let dense_col sp j =
  let v = Array.make sp.Milp.Sparse.m 0. in
  Milp.Sparse.axpy_col sp j 1. v;
  v

(* One basis exchange: a random non-basic column enters at the position
   of its largest pivot entry. Returns [replace]'s refactorized flag. *)
let exchange rng sp bas =
  let basic = Milp.Basis.bcols bas in
  let rec pick () =
    let j = Random.State.int rng sp.Milp.Sparse.n in
    if Array.mem j basic then pick () else j
  in
  let j = pick () in
  let w = ftran bas (dense_col sp j) in
  let r = ref 0 in
  Array.iteri (fun i x -> if Float.abs x > Float.abs w.(!r) then r := i) w;
  Milp.Basis.replace bas ~r:!r ~col:j ~w

let random_vec rng m = Array.init m (fun _ -> Random.State.float rng 2. -. 1.)
let bits v = Array.map Int64.bits_of_float v

(* FTRAN and BTRAN answers of [bas] on fixed probe vectors, as bits. *)
let solve_bits bas probes =
  List.concat_map
    (fun v -> [ bits (ftran bas v); bits (btran bas v) ])
    probes

(* A snapshot carries the eta file: reinstating it reproduces the
   snapshotted basis bit for bit with no factorization, reinstated
   copies do not share the eta array, and the snapshot is tied to its
   physical matrix. *)
let test_snapshot_carries_etas () =
  let sp, bcols, rng = random_basis 7 in
  let m = sp.Milp.Sparse.m in
  let bas = Milp.Basis.create sp bcols in
  for i = 1 to 6 do
    Alcotest.(check bool) (Printf.sprintf "exchange %d appends an eta" i) false
      (exchange rng sp bas)
  done;
  let probes = List.init 4 (fun _ -> random_vec rng m) in
  let expect = solve_bits bas probes in
  let fact () = Milp.Lp_stats.read Milp.Lp_stats.factorizations () in
  let f0 = fact () in
  let s = Milp.Basis.snapshot bas in
  let reinstate () =
    match Milp.Basis.of_snapshot sp s with
    | Some b -> b
    | None -> Alcotest.fail "of_snapshot refused its own matrix"
  in
  let a = reinstate () and b = reinstate () in
  Alcotest.(check int) "snapshot and of_snapshot do not factorize" 0 (fact () - f0);
  Alcotest.(check bool) "first copy bit-identical" true (solve_bits a probes = expect);
  Alcotest.(check bool) "second copy bit-identical" true (solve_bits b probes = expect);
  Alcotest.(check bool) "bcols preserved" true (Milp.Basis.bcols a = Milp.Basis.bcols bas);
  Alcotest.(check bool) "exchange on a copy appends an eta" false (exchange rng sp a);
  let moved = solve_bits a probes in
  Alcotest.(check bool) "copy moved away" true (moved <> expect);
  Alcotest.(check bool) "sibling untouched" true (solve_bits b probes = expect);
  Alcotest.(check bool) "original untouched" true (solve_bits bas probes = expect);
  (* the sibling appending its own eta must not overwrite the first
     copy's, as it would if the two shared one eta array *)
  Alcotest.(check bool) "exchange on the sibling appends an eta" false (exchange rng sp b);
  Alcotest.(check bool) "first copy keeps its eta" true (solve_bits a probes = moved);
  Alcotest.(check bool) "third copy bit-identical" true
    (solve_bits (reinstate ()) probes = expect);
  let sp', _, _ = random_basis 7 in
  Alcotest.(check bool) "structurally equal matrix" true (sp' = sp);
  Alcotest.(check bool) "refused for another physical matrix" true
    (Milp.Basis.of_snapshot sp' s = None)

(* FTRAN/BTRAN on the smallest bases: no rows at all, and one row
   through an eta that has no off-pivot entries. The values are powers
   of two, so the answers are exact. *)
let test_tiny_bases () =
  let empty = Milp.Model.create () in
  ignore (Milp.Model.continuous ~ub:1. empty "x");
  let sp = Milp.Sparse.of_model empty in
  let bas = Milp.Basis.create sp [||] in
  Alcotest.(check int) "m = 0: ftran" 0 (Array.length (ftran bas [||]));
  Alcotest.(check int) "m = 0: btran" 0 (Array.length (btran bas [||]));
  let y1, y2 = btran2 bas [||] [||] in
  Alcotest.(check (pair int int)) "m = 0: btran2" (0, 0) (Array.length y1, Array.length y2);
  let one = Milp.Model.create () in
  let x = Milp.Model.continuous ~ub:1. one "x" in
  Milp.Model.add_cons one (Milp.Linexpr.of_terms [ (2., x.Milp.Model.vid) ]) Milp.Model.Le 1.;
  let sp = Milp.Sparse.of_model one in
  let bas = Milp.Basis.create sp [| 0 |] in
  let check what expected got = Alcotest.(check (array (float 0.))) what expected got in
  check "m = 1: ftran" [| 2. |] (ftran bas [| 4. |]);
  check "m = 1: btran" [| 2. |] (btran bas [| 4. |]);
  let both = btran2 bas [| 4. |] [| -6. |] in
  check "m = 1: btran2, first" [| 2. |] (fst both);
  check "m = 1: btran2, second" [| -3. |] (snd both);
  let w = ftran bas (dense_col sp 1) in
  Alcotest.(check bool) "m = 1: the slack enters by an eta" false
    (Milp.Basis.replace bas ~r:0 ~col:1 ~w);
  check "m = 1: ftran through the eta" [| 4. |] (ftran bas [| 4. |]);
  check "m = 1: btran through the eta" [| 4. |] (btran bas [| 4. |]);
  let both = btran2 bas [| 4. |] [| -6. |] in
  check "m = 1: btran2 through the eta, first" [| 4. |] (fst both);
  check "m = 1: btran2 through the eta, second" [| -6. |] (snd both);
  (* the solves read and write unchecked: an input or output shorter
     than m, or a pivot column that would store an eta index past m, is
     refused at entry *)
  let one = [| 0. |] in
  Alcotest.check_raises "m = 1: ftran of a short input" (Invalid_argument "Basis.ftran")
    (fun () -> Milp.Basis.ftran bas [||] ~out:one);
  Alcotest.check_raises "m = 1: ftran into a short output" (Invalid_argument "Basis.ftran")
    (fun () -> Milp.Basis.ftran bas [| 4. |] ~out:[||]);
  Alcotest.check_raises "m = 1: btran of a short input" (Invalid_argument "Basis.btran")
    (fun () -> Milp.Basis.btran bas [||] ~out:one);
  Alcotest.check_raises "m = 1: btran into a short output" (Invalid_argument "Basis.btran")
    (fun () -> Milp.Basis.btran bas [| 4. |] ~out:[||]);
  Alcotest.check_raises "m = 1: btran2 of a short input" (Invalid_argument "Basis.btran2")
    (fun () -> ignore (btran2 bas [| 4. |] [||]));
  Alcotest.check_raises "m = 1: btran2 into a short output" (Invalid_argument "Basis.btran2")
    (fun () -> Milp.Basis.btran2 bas [| 4. |] [| 4. |] ~out1:one ~out2:[||]);
  Alcotest.check_raises "m = 1: btran2 into one output twice" (Invalid_argument "Basis.btran2")
    (fun () -> Milp.Basis.btran2 bas [| 4. |] [| -6. |] ~out1:one ~out2:one);
  (* an output may be its own input *)
  let v = [| 4. |] in
  Milp.Basis.ftran bas v ~out:v;
  check "m = 1: ftran in place" [| 4. |] v;
  Milp.Basis.btran bas v ~out:v;
  check "m = 1: btran in place" [| 4. |] v;
  Alcotest.check_raises "m = 1: a pivot column longer than m" (Invalid_argument "Basis.replace")
    (fun () -> ignore (Milp.Basis.replace bas ~r:0 ~col:0 ~w:[| 1.; 1. |]));
  (* the CSC column loops and the factorization read unchecked too: a
     column outside 0..n-1 (n = 2 here), a dense side shorter than m, a
     basis of other than m columns and a position outside 0..m-1 are
     refused at entry *)
  let refused what name f = Alcotest.check_raises ("m = 1: " ^ what) (Invalid_argument name) f in
  refused "col_dot of column -1" "Sparse.col_dot" (fun () ->
      ignore (Milp.Sparse.col_dot sp (-1) one));
  refused "col_dot of column n" "Sparse.col_dot" (fun () -> ignore (Milp.Sparse.col_dot sp 2 one));
  refused "col_dot with a short dense side" "Sparse.col_dot" (fun () ->
      ignore (Milp.Sparse.col_dot sp 0 [||]));
  refused "axpy_col of column -1" "Sparse.axpy_col" (fun () ->
      Milp.Sparse.axpy_col sp (-1) 1. one);
  refused "axpy_col of column n" "Sparse.axpy_col" (fun () -> Milp.Sparse.axpy_col sp 2 1. one);
  refused "axpy_col into a short dense side" "Sparse.axpy_col" (fun () ->
      Milp.Sparse.axpy_col sp 0 1. [||]);
  refused "col_iter of column -1" "Sparse.col_iter" (fun () ->
      Milp.Sparse.col_iter sp (-1) (fun _ _ -> ()));
  refused "col_iter of column n" "Sparse.col_iter" (fun () ->
      Milp.Sparse.col_iter sp 2 (fun _ _ -> ()));
  refused "create with column n" "Basis.create" (fun () -> ignore (Milp.Basis.create sp [| 2 |]));
  refused "create with column -1" "Basis.create" (fun () ->
      ignore (Milp.Basis.create sp [| -1 |]));
  refused "create with two columns" "Basis.create" (fun () ->
      ignore (Milp.Basis.create sp [| 0; 1 |]));
  refused "create with no column" "Basis.create" (fun () -> ignore (Milp.Basis.create sp [||]));
  refused "replace with column n" "Basis.replace" (fun () ->
      ignore (Milp.Basis.replace bas ~r:0 ~col:2 ~w:[| 1. |]));
  refused "replace with column -1" "Basis.replace" (fun () ->
      ignore (Milp.Basis.replace bas ~r:0 ~col:(-1) ~w:[| 1. |]));
  refused "replace at position m" "Basis.replace" (fun () ->
      ignore (Milp.Basis.replace bas ~r:1 ~col:0 ~w:[| 1. |]));
  refused "replace at position -1" "Basis.replace" (fun () ->
      ignore (Milp.Basis.replace bas ~r:(-1) ~col:0 ~w:[| 1. |]));
  (* and a refused call changes nothing *)
  check "m = 1: ftran after the refused calls" [| 4. |] (ftran bas [| 4. |]);
  Alcotest.(check (array int)) "m = 1: columns after the refused calls" [| 1 |]
    (Milp.Basis.bcols bas)

(* Reinstated copies share the snapshot's eta records. Driving one copy
   past the eta cap, through refactorizations, leaves a sibling and the
   original bit-identical. *)
let test_snapshot_siblings_past_cap () =
  let sp, bcols, rng = random_basis ~singular:false 11 in
  let m = sp.Milp.Sparse.m in
  let bas = Milp.Basis.create sp bcols in
  for _ = 1 to 20 do
    ignore (exchange rng sp bas)
  done;
  let probes = List.init 4 (fun _ -> random_vec rng m) in
  let expect = solve_bits bas probes in
  let s = Milp.Basis.snapshot bas in
  let reinstate () = Option.get (Milp.Basis.of_snapshot sp s) in
  let a = reinstate () and b = reinstate () in
  let refactorized = ref 0 in
  for _ = 1 to 70 do
    if exchange rng sp a then incr refactorized
  done;
  Alcotest.(check bool) "the copy refactorized" true (!refactorized > 0);
  Alcotest.(check bool) "sibling bit-identical" true (solve_bits b probes = expect);
  Alcotest.(check bool) "original bit-identical" true (solve_bits bas probes = expect)

(* Normwise relative residuals of FTRAN (B x = v) and BTRAN (B^T y = v)
   against the basis [bcols] names. *)
let residuals sp bas v =
  let m = sp.Milp.Sparse.m in
  let cols = Milp.Basis.bcols bas in
  let norm = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. in
  let bnorm =
    let rowsum = Array.make m 0. in
    Array.iter
      (fun j -> Milp.Sparse.col_iter sp j (fun i a -> rowsum.(i) <- rowsum.(i) +. Float.abs a))
      cols;
    norm rowsum
  in
  let x = ftran bas v in
  let bx = Array.make m 0. in
  Array.iteri (fun k j -> Milp.Sparse.axpy_col sp j x.(k) bx) cols;
  let rf = norm (Array.map2 ( -. ) bx v) /. ((bnorm *. norm x) +. norm v) in
  let y = btran bas v in
  let bty = Array.map (fun j -> Milp.Sparse.col_dot sp j y) cols in
  let rb = norm (Array.map2 ( -. ) bty v) /. ((bnorm *. norm y) +. norm v) in
  Float.max rf rb

let prop_factorization_residuals =
  QCheck2.Test.make ~name:"LU residuals after create and past the eta cap" ~count:64
    QCheck2.Gen.int
    (fun seed ->
      let sp, bcols, rng = random_basis seed in
      let m = sp.Milp.Sparse.m in
      let check what bas =
        let cols = Milp.Basis.bcols bas in
        if List.length (List.sort_uniq compare (Array.to_list cols)) <> m then
          QCheck2.Test.fail_reportf "seed %d %s: basis columns not distinct" seed what;
        for _ = 1 to 3 do
          let r = residuals sp bas (random_vec rng m) in
          if r > 1e-9 then
            QCheck2.Test.fail_reportf "seed %d %s: relative residual %g" seed what r
        done
      in
      let bas = Milp.Basis.create sp bcols in
      check "after create" bas;
      (* more exchanges than the eta cap: at least one must refactorize *)
      let refactorized = ref 0 in
      for _ = 1 to 80 do
        if exchange rng sp bas then incr refactorized
      done;
      if !refactorized = 0 then
        QCheck2.Test.fail_reportf "seed %d: 80 exchanges never refactorized" seed;
      check "after 80 exchanges" bas;
      true)

(* Kernel golden test: the bits of every FTRAN/BTRAN answer, through
   create, a chain of exchanges past the eta cap and a final probe, on
   three fixed bases: slack-heavy and triangular (the singleton pass
   alone), one with a dense 4x4 nucleus (the full Markowitz scan) and a
   singular one that is slack-repaired. The digest is the value the
   kernel produced when it was recorded; it changes only with an
   intended rounding change, and is then re-recorded with it. *)
let kernel_digest () =
  let buf = Buffer.create 65536 in
  let add v = Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) v in
  let run (sp, bcols, rng) =
    let m = sp.Milp.Sparse.m in
    let probes = List.init 3 (fun _ -> random_vec rng m) in
    let probe bas =
      List.iter (fun v -> add (ftran bas v); add (btran bas v)) probes
    in
    let bas = Milp.Basis.create sp bcols in
    Array.iter (fun c -> Buffer.add_int32_le buf (Int32.of_int c)) (Milp.Basis.bcols bas);
    probe bas;
    let refactorized = ref 0 in
    for _ = 1 to 80 do
      let basic = Milp.Basis.bcols bas in
      let rec pick () =
        let j = Random.State.int rng sp.Milp.Sparse.n in
        if Array.mem j basic then pick () else j
      in
      let j = pick () in
      let w = ftran bas (dense_col sp j) in
      add w;
      let r = ref 0 in
      Array.iteri (fun i x -> if Float.abs x > Float.abs w.(!r) then r := i) w;
      if Milp.Basis.replace bas ~r:!r ~col:j ~w then incr refactorized;
      add (btran bas (Array.init m (fun i -> if i = !r then 1. else 0.)))
    done;
    Buffer.add_int32_le buf (Int32.of_int !refactorized);
    probe bas;
    !refactorized
  in
  let slack_heavy = random_basis ~nucleus:0 ~slack_thirds:2 ~singular:false 101 in
  let nucleus = random_basis ~nucleus:4 ~singular:false 102 in
  let ((sp, bcols, _) as singular) = random_basis ~singular:true 103 in
  let repaired = Milp.Basis.bcols (Milp.Basis.create sp bcols) <> bcols in
  let refactorized = List.map run [ slack_heavy; nucleus; singular ] in
  (repaired, refactorized, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_kernel_golden () =
  let repaired, refactorized, digest = kernel_digest () in
  Alcotest.(check bool) "the singular basis is repaired" true repaired;
  List.iteri
    (fun i k ->
      Alcotest.(check bool) (Printf.sprintf "basis %d crosses the eta cap" i) true (k > 0))
    refactorized;
  Alcotest.(check string) "FTRAN/BTRAN bits" "fcac55218061b570bc893b8cf65da9ac" digest

(* The fused sweep equals two sweeps: [btran2 t a b] is
   [(btran t a, btran t b)] bit for bit, on the kernel golden test's
   three bases after create and along 80 exchanges past the eta cap,
   for random and unit-vector probes paired with each other. The
   smallest bases are in [test_tiny_bases]. *)
let test_btran2_equals_btran () =
  let check what bas a b =
    let y1, y2 = btran2 bas a b in
    if bits y1 <> bits (btran bas a) || bits y2 <> bits (btran bas b)
    then Alcotest.failf "%s: btran2 differs from two btrans" what
  in
  let run name (sp, bcols, rng) =
    let m = sp.Milp.Sparse.m in
    let unit i = Array.init m (fun k -> if k = i then 1. else 0.) in
    let probe step bas =
      let v = random_vec rng m and u = unit (Random.State.int rng m) in
      let what = Printf.sprintf "%s, exchange %d" name step in
      check (what ^ ", random/unit") bas v u;
      check (what ^ ", unit/random") bas u v;
      check (what ^ ", random/random") bas v (random_vec rng m)
    in
    let bas = Milp.Basis.create sp bcols in
    probe 0 bas;
    let refactorized = ref 0 in
    for step = 1 to 80 do
      if exchange rng sp bas then incr refactorized;
      probe step bas
    done;
    Alcotest.(check bool) (name ^ " crosses the eta cap") true (!refactorized > 0)
  in
  run "slack-heavy" (random_basis ~nucleus:0 ~slack_thirds:2 ~singular:false 101);
  run "nucleus" (random_basis ~nucleus:4 ~singular:false 102);
  run "singular" (random_basis ~singular:true 103)

(* A small random square basis: 3-8 rows, entries drawn from [values],
   a share [slack] of positions on their row's slack and the others on
   the structural column of the same index, and, if [repeat], position
   1 repeating position 0's column. *)
let edge_basis ~repeat ~values ~density ~slack seed =
  let rng = Random.State.make [| 0xed6e; seed |] in
  let m = 3 + Random.State.int rng 6 in
  let coef =
    Array.init m (fun _ ->
        Array.init m (fun _ ->
            if Random.State.float rng 1. < density then
              values.(Random.State.int rng (Array.length values))
            else 0.))
  in
  let cols = Array.init m (fun k -> if Random.State.float rng 1. < slack then -1 else k) in
  if repeat then begin
    cols.(0) <- 0;
    cols.(1) <- 0
  end;
  (sparse_of_rows coef, Array.mapi (fun k c -> if c < 0 then m + k else c) cols)

(* Markowitz search golden test: 25 small bases in four families, each
   seed chosen to reach one of the search's tie and edge cases:
   - [small]: two row singletons in one column that both pass the
     threshold, full-scan ties on cost and magnitude, cancellations;
   - [dense]: an entry cancelled below [drop_tol] and filled again in
     a later step; and (seed 47) fill-ins of one step that tie later
     in their column, so the order the step eliminates its rows in
     decides a pivot;
   - [ill]: row singletons failing the threshold, and factorizations
     whose residual check forces the retry at threshold 0.99;
   - [repeat]: a repeated column, repaired with a slack.
   The digest covers each basis's repaired columns, its factorization
   count and the bits of FTRAN/BTRAN on two probes; it was recorded
   with the kernel that searched a [Hashtbl] per row and must not
   move while the pivot rule stays the same. *)
let search_digest () =
  let small = [| 1.; -1.; 2.; -2.; 0.5; 3. |] in
  let families =
    [
      ( [ 10; 12; 14; 34; 96; 178 ],
        edge_basis ~repeat:false ~values:small ~density:0.45 ~slack:0.3 );
      ( [ 27; 30; 47; 100; 147; 163; 323 ],
        edge_basis ~repeat:false ~values:[| 1.; -1.; 2.; -2. |] ~density:0.6 ~slack:0.2 );
      ( [ 197; 265; 420; 432; 450; 536 ],
        edge_basis ~repeat:false
          ~values:[| 0.011; 1.; -1.; 1e8; -1e8; 3.3e-5; 7. |]
          ~density:0.5 ~slack:0.1 );
      ( [ 1; 4; 6; 10; 13; 14 ],
        edge_basis ~repeat:true ~values:small ~density:0.45 ~slack:0.3 );
    ]
  in
  let buf = Buffer.create 16384 in
  let add v = Array.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) v in
  let fact () = Milp.Lp_stats.read Milp.Lp_stats.factorizations () in
  let counts =
    List.map
      (fun (seeds, make) ->
        List.map
          (fun seed ->
            let sp, bcols = make seed in
            let m = sp.Milp.Sparse.m in
            let f0 = fact () in
            let bas = Milp.Basis.create sp bcols in
            let nfact = fact () - f0 in
            let cols = Milp.Basis.bcols bas in
            Array.iter (fun c -> Buffer.add_int32_le buf (Int32.of_int c)) cols;
            Buffer.add_int32_le buf (Int32.of_int nfact);
            List.iter
              (fun v -> add (ftran bas v); add (btran bas v))
              [
                Array.init m (fun i -> 1. +. (0.1 *. Float.of_int i));
                Array.init m (fun i -> if i mod 2 = 0 then 0.3 else -1.7);
              ];
            (nfact, cols <> bcols))
          seeds)
      families
  in
  (counts, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_search_golden () =
  let counts, digest = search_digest () in
  (match counts with
  | [ _; _; ill; repeat ] ->
    List.iter
      (fun (nfact, _) -> Alcotest.(check int) "ill: residual retry" 2 nfact)
      ill;
    List.iter (fun (_, repaired) -> Alcotest.(check bool) "repeat: repaired" true repaired) repeat
  | _ -> assert false);
  Alcotest.(check string) "FTRAN/BTRAN bits" "203e5a213e97bed76f8e6b522e094887" digest

(* Pivot-path golden test: default branch-and-bound (reliability
   branching with its strong-branching probes, cuts, diving) on 16
   fixed MILPs of the differential generator, the cases among its first
   thousand that run the most probes, and on the fig1 bilevel MILP in
   both encodings at k = 1. The random MILPs have continuous
   coefficients and so no exact ratio ties; the bilevel ones have
   some, so a changed tie-break in the dual ratio test or the leaving
   row moves the digest. The digest covers each
   solve's objective, bound and incumbent bits, its node count and its
   deltas of the pivot, dual-pivot, probe and factorization counters,
   about 4,500 dual pivots in all. It was recorded on the kernel that
   priced every column on every dual pivot and ran one BTRAN each for
   the duals and the pivot row; an exact kernel change must leave it as
   it is. *)
let pivot_path_digest () =
  let buf = Buffer.create 4096 in
  let add_int i = Buffer.add_int64_le buf (Int64.of_int i) in
  let add_float x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
  let counters =
    Milp.Lp_stats.[ pivots; dual_pivots; sb_probes; factorizations ]
  in
  let totals = Array.make (List.length counters) 0 in
  let bilevel encoding =
    let topo = Wan.Generators.fig1 () in
    let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:0 topo [ (1, 3); (2, 3) ] in
    let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
    let spec =
      { Raha.Bilevel.default_spec with Raha.Bilevel.encoding; max_failures = Some 1 }
    in
    (Raha.Bilevel.build spec topo paths (Traffic.Envelope.around ~slack:0.5 d)).Raha.Bilevel.model
  in
  List.iter
    (fun mdl ->
      let before = List.map (fun c -> Milp.Lp_stats.read c ()) counters in
      let r = Milp.Branch_bound.solve mdl in
      add_float r.Milp.Branch_bound.obj;
      add_float r.bound;
      Array.iter add_float r.values;
      add_int r.stats.Milp.Branch_bound.nodes;
      List.iteri
        (fun i (c, b) ->
          let d = Milp.Lp_stats.read c () - b in
          totals.(i) <- totals.(i) + d;
          add_int d)
        (List.combine counters before))
    (List.map random_milp
       [ 23; 34; 84; 88; 134; 152; 219; 318; 399; 519; 609; 762; 809; 823; 884; 987 ]
    @ [ bilevel (Raha.Bilevel.Strong_duality { levels = 5 }); bilevel Raha.Bilevel.Kkt ]);
  (totals, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_pivot_path_golden () =
  let totals, digest = pivot_path_digest () in
  Alcotest.(check bool) "the solves run dual pivots" true (totals.(1) > 4000);
  Alcotest.(check bool) "the solves run strong-branching probes" true (totals.(2) > 600);
  Alcotest.(check string) "pivot path" "eb296590a0b99764df68c25d4cc43d57" digest

(* A packing LP with 300 rows, above OCaml's 256-word minor-heap limit:
   a vector of one entry per row allocated during a solve would go
   straight to the major heap. Row i holds column i mod 200 and about
   three random ones more; every column is bounded. *)
let packing_lp () =
  let rng = Random.State.make [| 0xa110c |] in
  let m = 300 and n = 200 in
  let mdl = Milp.Model.create () in
  let var j = Milp.Model.continuous ~ub:10. mdl (Printf.sprintf "x%d" j) in
  let xs = Array.init n (fun j -> (var j).Milp.Model.vid) in
  let coef () = 0.5 +. Random.State.float rng 1.5 in
  for i = 0 to m - 1 do
    let extra = List.init 3 (fun _ -> (coef (), xs.(Random.State.int rng n))) in
    Milp.Model.add_cons mdl
      (Milp.Linexpr.of_terms ((coef (), xs.(i mod n)) :: extra))
      Milp.Model.Le (5. +. Random.State.float rng 10.)
  done;
  let weight x = (1. +. Random.State.float rng 1., x) in
  Milp.Model.set_objective mdl Milp.Model.Maximize
    (Milp.Linexpr.of_terms (Array.to_list (Array.map weight xs)));
  mdl

(* Dual pivots allocate no vector: two rhs overlays of [packing_lp],
   warm-started from its optimal basis, take different numbers of dual
   pivots, and each extra pivot may allocate directly in the major heap
   at most its eta record's two arrays (at most m words each). Words
   allocated directly in the major heap are [major_words] less
   [promoted_words]; the count is deterministic, and a solve's fixed
   costs (its state, the copied basis, the result) are the same for
   both overlays, so they cancel. *)
let test_dual_pivots_allocate_no_vector () =
  let prep = Milp.Simplex.prepare (packing_lp ()) in
  let sp = Milp.Simplex.prep_sparse prep in
  let m = sp.Milp.Sparse.m in
  let warm =
    match Milp.Simplex.solve_prepared prep with
    | Milp.Simplex.Optimal _, Some b -> b
    | _ -> Alcotest.fail "the base LP must solve to optimality"
  in
  let read c = Milp.Lp_stats.read c () in
  let base = Array.sub sp.Milp.Sparse.b 0 m in
  (* the overlay that halves the first [k] rows' rhs *)
  let measure k =
    let b = Array.mapi (fun i v -> if i < k then 0.5 *. v else v) base in
    let solve () = Milp.Simplex.solve_prepared ~b ~warm prep in
    (* the first warm solve publishes the basis' factorization *)
    ignore (solve ());
    let p0 = read Milp.Lp_stats.dual_pivots
    and f0 = read Milp.Lp_stats.factorizations
    and h0 = read Milp.Lp_stats.warm_hits in
    let _, promoted0, major0 = Gc.counters () in
    let r = solve () in
    let _, promoted1, major1 = Gc.counters () in
    (match r with
    | Milp.Simplex.Optimal _, _ -> ()
    | _ -> Alcotest.failf "overlay %d must solve to optimality" k);
    Alcotest.(check int) (Printf.sprintf "overlay %d: a warm hit" k) 1
      (read Milp.Lp_stats.warm_hits - h0);
    Alcotest.(check int) (Printf.sprintf "overlay %d: no factorization" k) 0
      (read Milp.Lp_stats.factorizations - f0);
    (read Milp.Lp_stats.dual_pivots - p0, major1 -. major0 -. (promoted1 -. promoted0))
  in
  let p1, w1 = measure 2 in
  let p2, w2 = measure 3 in
  Alcotest.(check bool)
    (Printf.sprintf "pivot counts differ by at least 5 (%d, %d)" p1 p2)
    true (p2 - p1 >= 5);
  let per_pivot = (w2 -. w1) /. Float.of_int (p2 - p1) in
  if per_pivot > Float.of_int (2 * m) then
    Alcotest.failf
      "%.0f words directly in the major heap per extra dual pivot (m = %d; %d pivots: %.0f \
       words, %d pivots: %.0f words)"
      per_pivot m p1 w1 p2 w2

let suite =
  [
    ("64 random MILPs: revised vs dense", `Quick, test_differential);
    ("warm-started child equals cold solve", `Quick, test_warm_start_property);
    ("anti-cycling on Beale's LP", `Quick, test_anti_cycling);
    ("dual Bland keeps the min-ratio test", `Quick, test_dual_bland_min_ratio);
    ("singular basis is slack-repaired", `Quick, test_singular_basis_repair);
    ("heap tie-break tolerance", `Quick, test_heap_tiebreak);
    ("solver reports postsolved basis statuses", `Quick, test_solver_statuses);
    ("basis snapshot carries its eta file", `Quick, test_snapshot_carries_etas);
    ("LU kernel golden digest", `Quick, test_kernel_golden);
    ("Markowitz search golden digest", `Quick, test_search_golden);
    ("pivot-path golden digest", `Quick, test_pivot_path_golden);
    ("fused BTRAN equals two BTRANs", `Quick, test_btran2_equals_btran);
    ("FTRAN/BTRAN on m = 0 and m = 1 bases", `Quick, test_tiny_bases);
    ("snapshot siblings survive a copy's refactorizations", `Quick,
      test_snapshot_siblings_past_cap);
    ("dual pivots allocate no vector", `Quick, test_dual_pivots_allocate_no_vector);
    QCheck_alcotest.to_alcotest prop_factorization_residuals;
  ]
