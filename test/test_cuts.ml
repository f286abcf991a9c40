(* Tests for the cutting-plane subsystem (Milp.Cuts): pinned cover,
   clique and Gomory separations on hand-built models, pool hygiene
   (duplicate hashing, incumbent audit), dual warm starts across
   appended cut rows (Simplex.extend_basis), separation at the root
   only, and the validity property over the random-MILP differential
   corpus — every pooled cut must be satisfied by every integer-feasible
   point of its model. *)

let check_float ?(eps = 1e-9) what expected got =
  Alcotest.(check (float eps)) what expected got

let t l =
  Milp.Linexpr.of_terms
    (List.map (fun (k, (v : Milp.Model.var)) -> (k, v.Milp.Model.vid)) l)

let rows_of mdl =
  Array.map
    (fun (c : Milp.Model.cons) -> (c.Milp.Model.lhs, c.Milp.Model.rhs))
    (Milp.Model.conss mdl)

let family_name : Milp.Cuts.family -> string = function
  | Milp.Cuts.Gomory -> "gomory"
  | Milp.Cuts.Cover -> "cover"
  | Milp.Cuts.Clique -> "clique"

(* Every family separates in every round, so a test about one family
   reads only that family's cuts from the pool. *)
let active_of fam pool =
  List.filter (fun (c : Milp.Cuts.cut) -> c.Milp.Cuts.family = fam)
    (Milp.Cuts.active_cuts pool)

(* One separation round at the model's own LP relaxation (no cuts
   applied yet): the entry point most pinned tests drive. *)
let separate_at pool mdl ~point ~basis ~incumbent =
  let sp = Milp.Sparse.of_model mdl in
  Milp.Cuts.separate_round pool ~sp ~rows:(rows_of mdl) ~point ~basis
    ~incumbent

(* --- knapsack cover ----------------------------------------------------- *)

(* 4a + 5b + 6c + 7d <= 15 over binaries at the fractional point
   (0, 0.9, 0.9, 0.9): the greedy minimal cover is {b, c, d}
   (5 + 6 + 7 > 15) and its LP value 2.7 violates b + c + d <= 2. No
   two items overflow the row, so the conflict graph is empty and the
   cut is not also a clique cut. *)
let cover_model () =
  let mdl = Milp.Model.create () in
  let x =
    Array.init 4 (fun i ->
        Milp.Model.integer ~ub:1. mdl (Printf.sprintf "x%d" i))
  in
  Milp.Model.add_cons mdl
    (t [ (4., x.(0)); (5., x.(1)); (6., x.(2)); (7., x.(3)) ])
    Milp.Model.Le 15.;
  Milp.Model.set_objective mdl Milp.Model.Maximize
    (t [ (1., x.(2)); (1., x.(3)) ]);
  mdl

let cover_point = [| 0.; 0.9; 0.9; 0.9 |]

let test_cover_pinned () =
  let mdl = cover_model () in
  let pool = Milp.Cuts.create mdl in
  let sep () =
    separate_at pool mdl ~point:cover_point ~basis:None ~incumbent:None
  in
  Alcotest.(check int) "one cut activated" 1 (sep ());
  (* the pool hashes the normalized support: separating the same point
     again finds the same cut and activates nothing *)
  Alcotest.(check int) "duplicate is hashed out" 0 (sep ());
  Alcotest.(check int) "one active cut" 1 (Milp.Cuts.active_count pool);
  match active_of Milp.Cuts.Cover pool with
  | [ c ] ->
    Alcotest.(check (array int)) "support is {x1, x2, x3}" [| 1; 2; 3 |]
      (Array.map snd c.Milp.Cuts.terms);
    Array.iter
      (fun (co, _) -> check_float "unit coefficient" 1. co)
      c.Milp.Cuts.terms;
    check_float "rhs |C| - 1" 2. c.Milp.Cuts.rhs;
    Alcotest.(check bool) "violated at the LP point" true
      (Milp.Cuts.eval_cut c cover_point > c.Milp.Cuts.rhs +. 1e-6);
    (* valid at every 0/1 point that satisfies the knapsack *)
    for m = 0 to 15 do
      let p =
        Array.init 4 (fun i -> if m land (1 lsl i) <> 0 then 1. else 0.)
      in
      let act =
        (4. *. p.(0)) +. (5. *. p.(1)) +. (6. *. p.(2)) +. (7. *. p.(3))
      in
      if act <= 15. then
        Alcotest.(check bool)
          (Printf.sprintf "cover valid at mask %d" m)
          true
          (Milp.Cuts.eval_cut c p <= c.Milp.Cuts.rhs +. 1e-9)
    done
  | l -> Alcotest.failf "expected 1 active cover cut, got %d" (List.length l)

(* --- clique ------------------------------------------------------------- *)

(* pairwise exclusions a + b <= 1, b + c <= 1, a + c <= 1: the conflict
   graph holds the triangle {a, b, c}, and the point (1/2, 1/2, 1/2)
   violates the clique inequality a + b + c <= 1 (LP value 1.5). Every
   greedy seed grows the same triangle; the round merges the copies
   into one cut. *)
let test_clique_pinned () =
  let mdl = Milp.Model.create () in
  let x = Array.init 3 (fun i -> Milp.Model.binary mdl (Printf.sprintf "b%d" i)) in
  List.iter
    (fun (i, j) ->
      Milp.Model.add_cons mdl (t [ (1., x.(i)); (1., x.(j)) ]) Milp.Model.Le 1.)
    [ (0, 1); (1, 2); (0, 2) ];
  Milp.Model.set_objective mdl Milp.Model.Maximize
    (t [ (1., x.(0)); (1., x.(1)); (1., x.(2)) ]);
  let pool = Milp.Cuts.create mdl in
  let point = [| 0.5; 0.5; 0.5 |] in
  let added = separate_at pool mdl ~point ~basis:None ~incumbent:None in
  Alcotest.(check int) "one cut activated" 1 added;
  let c =
    match active_of Milp.Cuts.Clique pool with
    | [ c ] -> c
    | l -> Alcotest.failf "expected 1 active clique cut, got %d" (List.length l)
  in
  Alcotest.(check (array int)) "support is the triangle" [| 0; 1; 2 |]
    (Array.map snd c.Milp.Cuts.terms);
  check_float "rhs 1" 1. c.Milp.Cuts.rhs;
  (* valid at every 0/1 point that satisfies the pairwise rows
     (i.e. at most one variable set) *)
  for m = 0 to 7 do
    let p = Array.init 3 (fun i -> if m land (1 lsl i) <> 0 then 1. else 0.) in
    if p.(0) +. p.(1) <= 1. && p.(1) +. p.(2) <= 1. && p.(0) +. p.(2) <= 1.
    then
      Alcotest.(check bool)
        (Printf.sprintf "clique valid at mask %d" m)
        true
        (Milp.Cuts.eval_cut c p <= c.Milp.Cuts.rhs +. 1e-9)
  done

(* --- Gomory ------------------------------------------------------------- *)

(* max x + y s.t. 3x + 2y <= 6, -3x + 2y <= 0 over integers: the LP
   relaxation's optimal vertex is (1, 1.5) with y basic fractional, so
   a GMI cut must exist, cut the vertex off, and hold at every integer
   point of the feasible region. *)
let gomory_model () =
  let mdl = Milp.Model.create () in
  let x = Milp.Model.integer ~ub:10. mdl "x" in
  let y = Milp.Model.integer ~ub:10. mdl "y" in
  Milp.Model.add_cons mdl (t [ (3., x); (2., y) ]) Milp.Model.Le 6.;
  Milp.Model.add_cons mdl (t [ (-3., x); (2., y) ]) Milp.Model.Le 0.;
  Milp.Model.set_objective mdl Milp.Model.Maximize (t [ (1., x); (1., y) ]);
  mdl

let gomory_feasible px py =
  (3. *. px) +. (2. *. py) <= 6. +. 1e-9
  && (-3. *. px) +. (2. *. py) <= 1e-9

let test_gomory_pinned () =
  let mdl = gomory_model () in
  let prep = Milp.Simplex.prepare mdl in
  match Milp.Simplex.solve_prepared prep with
  | Milp.Simplex.Optimal { values; obj }, Some bas ->
    check_float ~eps:1e-6 "LP vertex x" 1. values.(0);
    check_float ~eps:1e-6 "LP vertex y" 1.5 values.(1);
    check_float ~eps:1e-6 "LP objective" 2.5 obj;
    let pool = Milp.Cuts.create mdl in
    let basis =
      Some (Milp.Simplex.basis_cols bas, Milp.Simplex.basis_statuses bas)
    in
    let added =
      Milp.Cuts.separate_round pool
        ~sp:(Milp.Simplex.prep_sparse prep)
        ~rows:(rows_of mdl) ~point:values ~basis ~incumbent:None
    in
    Alcotest.(check bool) "a cut activated" true (added >= 1);
    Alcotest.(check bool) "a Gomory cut in the pool" true
      (active_of Milp.Cuts.Gomory pool <> []);
    List.iter
      (fun (c : Milp.Cuts.cut) ->
        Alcotest.(check bool) "cuts the fractional vertex off" true
          (Milp.Cuts.eval_cut c values > c.Milp.Cuts.rhs +. 1e-6);
        for xi = 0 to 10 do
          for yi = 0 to 10 do
            let p = [| float_of_int xi; float_of_int yi |] in
            if gomory_feasible p.(0) p.(1) then
              Alcotest.(check bool)
                (Printf.sprintf "gomory valid at (%d, %d)" xi yi)
                true
                (Milp.Cuts.eval_cut c p <= c.Milp.Cuts.rhs +. 1e-7)
          done
        done)
      (active_of Milp.Cuts.Gomory pool)
  | _ -> Alcotest.fail "LP relaxation not optimal with a basis"

(* --- warm starts across cut rows ---------------------------------------- *)

(* Cuts only append rows, so the parent's optimal basis extended with
   the new slack columns must be accepted as a dual warm start and agree
   with a cold solve of the tightened LP. *)
let test_extend_basis_warm () =
  let mdl = gomory_model () in
  let prep = Milp.Simplex.prepare mdl in
  match Milp.Simplex.solve_prepared prep with
  | Milp.Simplex.Optimal { values; _ }, Some bas ->
    let pool = Milp.Cuts.create mdl in
    let basis =
      Some (Milp.Simplex.basis_cols bas, Milp.Simplex.basis_statuses bas)
    in
    let added =
      Milp.Cuts.separate_round pool
        ~sp:(Milp.Simplex.prep_sparse prep)
        ~rows:(rows_of mdl) ~point:values ~basis ~incumbent:None
    in
    Alcotest.(check bool) "cuts to extend over" true (added >= 1);
    let xprep = Milp.Simplex.prepare (Milp.Cuts.extend_model mdl pool) in
    (* same shape -> returned unchanged; cut rows -> slack-extended *)
    (match Milp.Simplex.extend_basis bas prep with
    | Some b -> Alcotest.(check bool) "same-shape extend is identity" true (b == bas)
    | None -> Alcotest.fail "same-shape extend rejected");
    (match Milp.Simplex.extend_basis bas xprep with
    | None -> Alcotest.fail "extension across cut rows rejected"
    | Some warm_basis ->
      let a0 = Milp.Lp_stats.read Milp.Lp_stats.warm_attempts () in
      let warm, _ = Milp.Simplex.solve_prepared ~warm:warm_basis xprep in
      Alcotest.(check bool) "warm start attempted" true
        (Milp.Lp_stats.read Milp.Lp_stats.warm_attempts () > a0);
      let cold, _ = Milp.Simplex.solve_prepared xprep in
      match (warm, cold) with
      | ( Milp.Simplex.Optimal { obj = wobj; _ },
          Milp.Simplex.Optimal { obj = cobj; _ } ) ->
        check_float ~eps:1e-6 "warm agrees with cold" cobj wobj
      | _ -> Alcotest.fail "tightened LP not optimal");
    (* a differently-shaped model must be rejected outright *)
    let other = cover_model () in
    (match Milp.Simplex.extend_basis bas (Milp.Simplex.prepare other) with
    | None -> ()
    | Some _ -> Alcotest.fail "extension across models accepted");
    (* an incumbent audit only drops cuts, so below the root a basis
       with more rows than the current LP predates a drop: the shape
       rule must reject it *)
    let one = Milp.Cuts.create other and two = Milp.Cuts.create other in
    let sep pool point =
      separate_at pool other ~point ~basis:None ~incumbent:None
    in
    Alcotest.(check int) "first cut" 1 (sep one cover_point);
    Alcotest.(check int) "same first cut" 1 (sep two cover_point);
    Alcotest.(check int) "second cut" 1 (sep two [| 0.9; 0.; 0.9; 0.9 |]);
    let prep_of pool = Milp.Simplex.prepare (Milp.Cuts.extend_model other pool) in
    let prep1 = prep_of one and prep2 = prep_of two in
    (match Milp.Simplex.solve_prepared prep2 with
    | Milp.Simplex.Optimal _, Some bas2 ->
      Alcotest.(check bool) "two-cut basis onto the one-cut LP" true
        (Option.is_none (Milp.Simplex.extend_basis bas2 prep1))
    | _ -> Alcotest.fail "two-cut LP not optimal with a basis");
    (match Milp.Simplex.solve_prepared prep1 with
    | Milp.Simplex.Optimal _, Some bas1 ->
      Alcotest.(check bool) "one-cut basis extends to the two-cut LP" true
        (Option.is_some (Milp.Simplex.extend_basis bas1 prep2))
    | _ -> Alcotest.fail "one-cut LP not optimal with a basis")
  | _ -> Alcotest.fail "LP relaxation not optimal with a basis"

(* --- pool hygiene: incumbent audit ---------------------------------------- *)

let test_incumbent_audit () =
  let aud0 = Milp.Lp_stats.read Milp.Lp_stats.cut_audit_failures () in
  let mdl = cover_model () in
  let pool = Milp.Cuts.create mdl in
  let incumbent = [| 0.; 0.; 1.; 0. |] in
  (* separation with an incumbent in hand audits before activation *)
  let added =
    separate_at pool mdl ~point:cover_point ~basis:None
      ~incumbent:(Some incumbent)
  in
  Alcotest.(check int) "audited cut still activates" 1 added;
  Alcotest.(check int) "re-audit keeps valid cuts" 0
    (Milp.Cuts.audit_incumbent pool incumbent);
  Alcotest.(check int) "no audit failures" 0
    (Milp.Lp_stats.read Milp.Lp_stats.cut_audit_failures () - aud0)

(* --- separation at the root only ------------------------------------------ *)

(* Past the root the search separates nothing, so a full solve generates
   exactly the root's candidates. The model is the KKT encoding of the
   6-node africa-like WAN under variable demand, whose tree passes 200
   nodes. *)
let test_root_only () =
  let topo = Wan.Generators.africa_like ~seed:5 ~n:6 () in
  let pairs = [ (0, 4); (1, 5) ] in
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 topo pairs in
  let env =
    Traffic.Envelope.from_zero ~slack:0.3
      (Traffic.Demand.of_list (List.map (fun p -> (p, 60.)) pairs))
  in
  let spec =
    { Raha.Bilevel.default_spec with threshold = Some 1e-5; encoding = Raha.Bilevel.Kkt }
  in
  let built = Raha.Bilevel.build spec topo paths env in
  let options =
    {
      Milp.Solver.default_options with
      branch_priority = built.Raha.Bilevel.branch_priority;
    }
  in
  let generated options =
    let g0 = Milp.Lp_stats.read Milp.Lp_stats.cuts_generated () in
    let sol = Milp.Solver.solve ~options built.Raha.Bilevel.model in
    (sol, Milp.Lp_stats.read Milp.Lp_stats.cuts_generated () - g0)
  in
  let full, g_full = generated options in
  let _, g_root = generated { options with max_nodes = 1 } in
  Alcotest.(check bool) "the tree passes 200 nodes" true (full.Milp.Solver.nodes > 200);
  Alcotest.(check bool) "the root separates" true (g_root > 0);
  Alcotest.(check int) "full solve generates only the root's cuts" g_root g_full

(* --- validity over the differential corpus ------------------------------- *)

(* Integer assignments of the model's integer variables, in
   lexicographic order, capped. *)
let int_assignments mdl cap =
  let lb, ub = Milp.Model.bounds mdl in
  let ids = Array.of_list (Milp.Model.int_var_ids mdl) in
  let acc = ref [] and count = ref 0 in
  let rec go i fixed =
    if !count < cap then
      if i = Array.length ids then begin
        incr count;
        acc := List.rev fixed :: !acc
      end
      else begin
        let id = ids.(i) in
        let lo = int_of_float (Float.ceil (lb.(id) -. 1e-9))
        and hi = int_of_float (Float.floor (ub.(id) +. 1e-9)) in
        let v = ref lo in
        while !v <= hi && !count < cap do
          go (i + 1) ((id, float_of_int !v) :: fixed);
          incr v
        done
      end
  in
  go 0 [];
  List.rev !acc

(* Root-style separation loop: re-extend the LP with the active cuts and
   separate at each new fractional vertex, like Branch_bound's root. *)
let root_separate mdl pool rounds =
  let rec go k =
    if k > 0 then begin
      let xm = Milp.Cuts.extend_model mdl pool in
      let prep = Milp.Simplex.prepare xm in
      match Milp.Simplex.solve_prepared prep with
      | Milp.Simplex.Optimal { values; _ }, bas ->
        let basis =
          Option.map
            (fun b ->
              (Milp.Simplex.basis_cols b, Milp.Simplex.basis_statuses b))
            bas
        in
        let added =
          Milp.Cuts.separate_round pool
            ~sp:(Milp.Simplex.prep_sparse prep)
            ~rows:(rows_of xm) ~point:values ~basis ~incumbent:None
        in
        if added > 0 then go (k - 1)
      | _ -> ()
    end
  in
  go rounds

(* Every pooled cut must hold at every integer-feasible point: for each
   (capped) integer assignment, maximize the cut's left-hand side over
   the remaining LP — a violation is an integer-feasible point the cut
   wrongly excludes. *)
let prop_corpus_cuts_valid =
  QCheck2.Test.make ~name:"pooled cuts are satisfied by integer points"
    ~count:64
    QCheck2.Gen.(int_range 0 63)
    (fun case ->
      let mdl = Test_revised.random_milp case in
      let pool = Milp.Cuts.create mdl in
      root_separate mdl pool 3;
      let cuts = Milp.Cuts.active_cuts pool in
      let assignments = int_assignments mdl 60 in
      let chk = Test_revised.random_milp case in
      let lb0, ub0 = Milp.Model.bounds chk in
      List.iteri
        (fun ci (c : Milp.Cuts.cut) ->
          if ci < 8 then begin
            Milp.Model.set_objective chk Milp.Model.Maximize
              (Milp.Linexpr.of_terms (Array.to_list c.Milp.Cuts.terms));
            let prep = Milp.Simplex.prepare chk in
            let tol = 1e-5 *. Float.max 1. (Float.abs c.Milp.Cuts.rhs) in
            List.iter
              (fun assignment ->
                let lb = Array.copy lb0 and ub = Array.copy ub0 in
                List.iter
                  (fun (id, v) ->
                    lb.(id) <- v;
                    ub.(id) <- v)
                  assignment;
                match Milp.Simplex.solve_prepared ~lb ~ub prep with
                | Milp.Simplex.Optimal { obj; _ }, _ ->
                  if obj > c.Milp.Cuts.rhs +. tol then
                    QCheck2.Test.fail_reportf
                      "case %d cut %d (%s): max lhs %.9g > rhs %.9g" case ci
                      (family_name c.Milp.Cuts.family) obj c.Milp.Cuts.rhs
                | _ -> ())
              assignments
          end)
        cuts;
      true)

(* Full-solver differential: cuts on vs off must agree on status and
   objective across the corpus (cuts tighten the relaxation, never the
   answer), with certified feasible points and zero audit failures. *)
let test_solver_differential () =
  let aud0 = Milp.Lp_stats.read Milp.Lp_stats.cut_audit_failures () in
  for case = 0 to 31 do
    let mdl = Test_revised.random_milp case in
    let solve cuts =
      Milp.Solver.solve ~options:{ Milp.Solver.default_options with cuts } mdl
    in
    let on = solve Milp.Cuts.default and off = solve Milp.Cuts.disabled in
    if on.Milp.Solver.status <> off.Milp.Solver.status then
      Alcotest.failf "case %d: cuts-on %s vs cuts-off %s" case
        (Format.asprintf "%a" Milp.Solver.pp_status on.Milp.Solver.status)
        (Format.asprintf "%a" Milp.Solver.pp_status off.Milp.Solver.status);
    match on.Milp.Solver.status with
    | Milp.Solver.Optimal ->
      let eps = 1e-6 *. (1. +. Float.abs off.Milp.Solver.obj) in
      check_float ~eps
        (Printf.sprintf "case %d objective" case)
        off.Milp.Solver.obj on.Milp.Solver.obj;
      (match
         (Milp.Certify.check_compiled ~tols:(Milp.Certify.gate_tolerances ~int_tol:1e-6)
            (Milp.Certify.compile mdl) on.Milp.Solver.values)
           .Milp.Certify.failure
       with
      | None -> ()
      | Some reason ->
        Alcotest.failf "case %d: cuts-on point infeasible: %s" case reason)
    | _ -> ()
  done;
  Alcotest.(check int) "no audit failures across the corpus" 0
    (Milp.Lp_stats.read Milp.Lp_stats.cut_audit_failures () - aud0)

let suite =
  [
    ("pinned cover cut", `Quick, test_cover_pinned);
    ("pinned clique cut", `Quick, test_clique_pinned);
    ("pinned Gomory cut at a fractional vertex", `Quick, test_gomory_pinned);
    ("warm start extends across cut rows", `Quick, test_extend_basis_warm);
    ("incumbent audit", `Quick, test_incumbent_audit);
    ("cuts separate at the root only", `Quick, test_root_only);
    QCheck_alcotest.to_alcotest prop_corpus_cuts_valid;
    ("32 random MILPs: cuts on vs off", `Quick, test_solver_differential);
  ]
