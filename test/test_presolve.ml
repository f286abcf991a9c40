(* Tests for the MILP presolve/postsolve engine: each reduction in
   isolation, probing's edge cases with hand-computed bounds, the
   postsolve index mapping, a presolve-on/off differential suite over
   random MILPs, the bilevel encodings' known optima (big-M tightening
   must never cut off the known worst case), and a golden digest of the
   reductions over a bilevel corpus. *)

open Milp

let check_float what expected got =
  Alcotest.(check (float 1e-6)) what expected got

let reduced_exn = function
  | Presolve.Reduced { model; post; stats } -> (model, post, stats)
  | Presolve.Infeasible _ ->
    Alcotest.fail "expected a reduced model, got infeasible"

let solve_with presolve m = Solver.solve ~presolve m

(* --- unit reductions --------------------------------------------------- *)

let test_singleton_row () =
  (* 2x <= 10 is absorbed into the bound ub(x) = 5 and removed *)
  let m = Model.create () in
  let x = Model.continuous ~ub:50. m "x" in
  let y = Model.continuous ~ub:50. m "y" in
  Model.add_cons m (Linexpr.var ~coeff:2. x.vid) Model.Le 10.;
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]) Model.Le 8.;
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]);
  let rm, post, stats = reduced_exn (Presolve.presolve m) in
  Alcotest.(check bool) "row removed" true (Model.num_cons rm < Model.num_cons m);
  Alcotest.(check bool) "stats counted it" true (stats.Presolve.rows_removed >= 1);
  (match Postsolve.reduced_of_orig post x.vid with
  | Some rx ->
    let _, ub = Model.bounds rm in
    Alcotest.(check bool) "ub tightened to 5" true (ub.(rx) <= 5. +. 1e-6)
  | None -> ());
  check_float "optimum unchanged" 8. (solve_with true m).Solver.obj

let test_fixed_substitution () =
  (* 2x = 6 fixes x at 3; the reduced model drops the column *)
  let m = Model.create () in
  let x = Model.continuous ~ub:50. m "x" in
  let y = Model.continuous ~ub:50. m "y" in
  Model.add_cons m (Linexpr.var ~coeff:2. x.vid) Model.Eq 6.;
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]) Model.Le 10.;
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]);
  let rm, post, _ = reduced_exn (Presolve.presolve m) in
  Alcotest.(check bool) "column dropped" true
    (Model.num_vars rm < Model.num_vars m);
  (match Postsolve.value_of_fixed post x.vid with
  | Some v -> check_float "fixed at 3" 3. v
  | None -> Alcotest.fail "x should be fixed");
  let sol = solve_with true m in
  check_float "optimum through substitution" 10. sol.Solver.obj;
  Alcotest.(check int) "values restored to original indexing"
    (Model.num_vars m)
    (Array.length sol.Solver.values);
  check_float "restored fixed value" 3. sol.Solver.values.(x.vid);
  Alcotest.(check bool) "restored point feasible on the original" true
    ((Certify.check_compiled ~tols:Certify.default_tolerances (Certify.compile m) sol.Solver.values)
       .Certify.failure = None)

let test_redundant_row () =
  (* x <= 100 with ub(x) = 5 can never bind *)
  let m = Model.create () in
  let x = Model.continuous ~ub:5. m "x" in
  Model.add_cons m (Linexpr.var x.vid) Model.Le 100.;
  Model.set_objective m Model.Maximize (Linexpr.var x.vid);
  let rm, _, _ = reduced_exn (Presolve.presolve m) in
  Alcotest.(check int) "no rows survive" 0 (Model.num_cons rm);
  check_float "optimum unchanged" 5. (solve_with true m).Solver.obj

let test_forcing_row () =
  (* x + y >= 10 with ub 5 each forces both to their upper bounds *)
  let m = Model.create () in
  let x = Model.continuous ~ub:5. m "x" in
  let y = Model.continuous ~ub:5. m "y" in
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]) Model.Ge 10.;
  Model.set_objective m Model.Minimize
    (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]);
  let _, _, stats = reduced_exn (Presolve.presolve m) in
  Alcotest.(check bool) "both columns fixed" true
    (stats.Presolve.cols_fixed >= 2);
  let sol = solve_with true m in
  check_float "x forced to 5" 5. sol.Solver.values.(x.vid);
  check_float "y forced to 5" 5. sol.Solver.values.(y.vid)

let test_infeasible_row () =
  let m = Model.create () in
  let x = Model.continuous ~ub:5. m "x" in
  let y = Model.continuous ~ub:5. m "y" in
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]) Model.Ge 11.;
  Model.set_objective m Model.Maximize (Linexpr.var x.vid);
  (match Presolve.presolve m with
  | Presolve.Infeasible _ -> ()
  | Presolve.Reduced _ -> Alcotest.fail "expected infeasible");
  Alcotest.(check bool) "solver agrees" true
    ((solve_with true m).Solver.status = Solver.Infeasible)

let test_integer_infeasible () =
  (* 2x = 5 with x integer: the implied fixing x = 2.5 is fractional *)
  let m = Model.create () in
  let x = Model.integer ~ub:10. m "x" in
  Model.add_cons m (Linexpr.var ~coeff:2. x.vid) Model.Eq 5.;
  Model.set_objective m Model.Maximize (Linexpr.var x.vid);
  (match Presolve.presolve m with
  | Presolve.Infeasible _ -> ()
  | Presolve.Reduced _ -> Alcotest.fail "expected infeasible");
  Alcotest.(check bool) "statuses agree with no presolve" true
    ((solve_with true m).Solver.status = (solve_with false m).Solver.status)

let test_bigm_tightening () =
  (* x <= 4 plus the big-M row x + 9b <= 10: the M is recomputed from the
     propagated activity bound, giving x + 3b <= 4 *)
  let m = Model.create () in
  let b = Model.binary m "b" in
  let x = Model.continuous ~ub:10. m "x" in
  Model.add_cons m (Linexpr.var x.vid) Model.Le 4.;
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (9., b.vid) ]) Model.Le 10.;
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms [ (1., x.vid); (1., b.vid) ]);
  let _, _, stats = reduced_exn (Presolve.presolve m) in
  Alcotest.(check bool) "a big-M was tightened" true
    (stats.Presolve.big_ms_tightened >= 1);
  (* b = 0 -> x <= 4 (obj 4) beats b = 1 -> x <= 1 (obj 2); tightening
     must not cut either branch off *)
  check_float "optimum with presolve" 4. (solve_with true m).Solver.obj;
  check_float "optimum without" 4. (solve_with false m).Solver.obj

let test_probing_fixes_binary () =
  (* b = 1 implies x <= 2 (first row) and x >= 3 (second row): only
     probing sees the conjunction and fixes b = 0 *)
  let m = Model.create () in
  let b = Model.binary m "b" in
  let x = Model.continuous ~ub:10. m "x" in
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (5., b.vid) ]) Model.Le 7.;
  Model.add_cons m (Linexpr.of_terms [ (-1., x.vid); (5., b.vid) ]) Model.Le 2.;
  Model.set_objective m Model.Maximize (Linexpr.var x.vid);
  let _, post, stats = reduced_exn (Presolve.presolve m) in
  Alcotest.(check bool) "probing ran" true (stats.Presolve.probed >= 1);
  Alcotest.(check bool) "probing fixed the binary" true
    (stats.Presolve.probe_fixed >= 1);
  (match Postsolve.value_of_fixed post b.vid with
  | Some v -> check_float "b fixed at 0" 0. v
  | None -> Alcotest.fail "b should be fixed by probing");
  check_float "optimum with presolve" 7. (solve_with true m).Solver.obj;
  check_float "optimum without" 7. (solve_with false m).Solver.obj

(* the original variable's bounds after presolve: its reduced bounds, or
   its fixed value twice *)
let orig_bounds model post j =
  match Postsolve.reduced_of_orig post j with
  | Some rj ->
    let lb, ub = Model.bounds model in
    (lb.(rj), ub.(rj))
  | None -> (
    match Postsolve.value_of_fixed post j with
    | Some v -> (v, v)
    | None -> Alcotest.failf "x%d neither kept nor fixed" j)

let test_probing_chain_past_max_passes () =
  (* Integer chain x0 >= x1 >= ... >= x50 in [0, 100] with ub(x0) = 10,
     the rows listed tail first, so each fixpoint pass carries the bound
     one link further: the first fixpoint stops at 20 passes with
     x1..x20 <= 10, and the row x21 <= x20 still tightens something
     under the global bounds when probing starts. The probed binary b is
     in no row, so a branch starts with no row dirty and only rows not
     yet known quiet run: each branch's 3 rounds bring x21..x23 down to
     10, the branch union adopts that, and the second fixpoint's 20
     passes reach x43. *)
  let n = 50 in
  let m = Model.create () in
  let b = Model.binary m "b" in
  let xs =
    Array.init (n + 1) (fun i ->
        Model.integer ~ub:(if i = 0 then 10. else 100.) m (Printf.sprintf "x%d" i))
  in
  for i = n - 1 downto 0 do
    Model.add_cons m
      (Linexpr.of_terms [ (1., xs.(i + 1).vid); (-1., xs.(i).vid) ])
      Model.Le 0.
  done;
  let terms = Array.to_list (Array.map (fun (x : Model.var) -> (1., x.vid)) xs) in
  Model.set_objective m Model.Maximize (Linexpr.of_terms ((1., b.vid) :: terms));
  let rm, post, stats = reduced_exn (Presolve.presolve m) in
  Alcotest.(check int) "probed b" 1 stats.Presolve.probed;
  Alcotest.(check int) "20 passes before probing, 20 after" 40 stats.Presolve.passes;
  Alcotest.(check int) "bounds: 20 + 3 from the branch union + 20" 43
    stats.Presolve.bounds_tightened;
  Array.iteri
    (fun i (x : Model.var) ->
      let lb, ub = orig_bounds rm post x.vid in
      check_float (Printf.sprintf "lb x%d" i) 0. lb;
      check_float (Printf.sprintf "ub x%d" i) (if i <= 43 then 10. else 100.) ub)
    xs

let test_probing_union_tightens_continuous () =
  (* 3b + 2x + y = 5 and y + 2b <= 2, b binary, x integer in [0, 10], y
     in [0, 2]. The fixpoint gives x <= 2 and nothing else. Probing b:
     - b = 0: x >= 1.5 so x = 2; then, one round later and only from the
       row's own move, y <= 5 - 4 = 1 (and y >= 1): y in [1, 1];
     - b = 1: x <= 1, y <= 0, then x >= 1: x = 1, y in [0, 0].
     Both branches are feasible, so b stays free and the union gives
     x in [1, 2] and y in [0, 1]: a continuous bound no single row
     implies. *)
  let m = Model.create () in
  let b = Model.binary m "b" in
  let x = Model.integer ~ub:10. m "x" in
  let y = Model.continuous ~ub:2. m "y" in
  Model.add_cons m (Linexpr.of_terms [ (3., b.vid); (2., x.vid); (1., y.vid) ]) Model.Eq 5.;
  Model.add_cons m (Linexpr.of_terms [ (1., y.vid); (2., b.vid) ]) Model.Le 2.;
  Model.set_objective m Model.Maximize (Linexpr.of_terms [ (1., y.vid); (1., b.vid) ]);
  let rm, post, stats = reduced_exn (Presolve.presolve m) in
  Alcotest.(check int) "probed b" 1 stats.Presolve.probed;
  Alcotest.(check int) "no branch infeasible" 0 stats.Presolve.probe_fixed;
  let expect what (l, u) (lb, ub) =
    check_float ("lb " ^ what) l lb;
    check_float ("ub " ^ what) u ub
  in
  expect "b" (0., 1.) (orig_bounds rm post b.vid);
  expect "x" (1., 2.) (orig_bounds rm post x.vid);
  expect "y" (0., 1.) (orig_bounds rm post y.vid);
  check_float "optimum with presolve" 1. (solve_with true m).Solver.obj;
  check_float "optimum without" 1. (solve_with false m).Solver.obj

let test_warm_start_and_hints_translate () =
  (* warm starts and plunge hints are given in original indexing; the
     solver must translate them into the reduced space (x is fixed by its
     bounds and vanishes from the reduced model) *)
  let m = Model.create () in
  let x = Model.continuous ~lb:3. ~ub:3. m "x" in
  let a = Model.binary m "a" in
  let b = Model.binary m "b" in
  Model.add_cons m (Linexpr.of_terms [ (1., a.vid); (1., b.vid) ]) Model.Le 1.;
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms [ (1., x.vid); (2., a.vid); (3., b.vid) ]);
  let options =
    {
      Solver.default_options with
      warm_start = Some [| 3.; 0.; 1. |];
      plunge_hints = [ [ (x.vid, 3.); (a.vid, 1.); (b.vid, 0.) ] ];
    }
  in
  let sol = Solver.solve ~presolve:true ~options m in
  Alcotest.(check bool) "optimal" true (sol.Solver.status = Solver.Optimal);
  check_float "optimum" 6. sol.Solver.obj;
  check_float "fixed var restored" 3. sol.Solver.values.(x.vid)

let test_stats_counters_exported () =
  (* the registry in declaration order: benchmark traces and daemon
     answers key on these names *)
  Alcotest.(check (list string))
    "counter names"
    [
      "simplex"; "dual-pivots"; "factorizations"; "eta-updates"; "warm-attempts";
      "warm-hits"; "bb-nodes"; "presolve-rows"; "presolve-cols"; "presolve-bigm";
      "presolve-ops"; "certify-checks"; "certify-failures"; "cuts-generated";
      "cuts-applied"; "cut-audit-failures"; "batch-prepares"; "batch-overlays";
      "batch-warm-hits"; "sb-probes"; "pseudocost-updates"; "heuristic-solutions";
      "heuristic-rejections"; "hint-refutes"; "bb-solves";
    ]
    (List.map fst Solver.stats_counters);
  let rows0 = Lp_stats.read Lp_stats.presolve_rows () in
  let m = Model.create () in
  let x = Model.continuous ~ub:5. m "x" in
  Model.add_cons m (Linexpr.var x.vid) Model.Le 100.;
  Model.set_objective m Model.Maximize (Linexpr.var x.vid);
  ignore (solve_with true m);
  Alcotest.(check bool) "cumulative rows-removed counter advanced" true
    (Lp_stats.read Lp_stats.presolve_rows () > rows0)

(* --- differential suite: presolve on vs off on random MILPs ----------- *)

let random_model st =
  let nv = 2 + Random.State.int st 5 in
  let nc = 1 + Random.State.int st 6 in
  let m = Model.create ~name:"diff" () in
  let xs =
    Array.init nv (fun i ->
        let name = Printf.sprintf "x%d" i in
        match Random.State.int st 3 with
        | 0 ->
          Model.add_var m ~name ~kind:Model.Continuous ~lb:0.
            ~ub:(float_of_int (2 + Random.State.int st 8))
        | 1 -> Model.add_var m ~name ~kind:Model.Binary ~lb:0. ~ub:1.
        | _ ->
          Model.add_var m ~name ~kind:Model.Integer ~lb:0.
            ~ub:(float_of_int (1 + Random.State.int st 6)))
  in
  for _ = 1 to nc do
    let terms =
      Array.to_list xs
      |> List.filter_map (fun (v : Model.var) ->
             if Random.State.float st 1. < 0.7 then
               Some (Random.State.float st 8. -. 4., v.Model.vid)
             else None)
    in
    let rel =
      (* equalities with random data are usually infeasible; keep them
         rare enough that most cases exercise the optimal path *)
      match Random.State.int st 10 with
      | 0 -> Model.Eq
      | 1 | 2 | 3 -> Model.Ge
      | _ -> Model.Le
    in
    let rhs = Random.State.float st 17. -. 2. in
    Model.add_cons m (Linexpr.of_terms terms) rel rhs
  done;
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms
       (Array.to_list xs
       |> List.map (fun (v : Model.var) ->
              (Random.State.float st 6. -. 3., v.Model.vid))));
  m

let test_differential () =
  let cases = 60 in
  let optimal = ref 0 in
  for case = 0 to cases - 1 do
    let st = Random.State.make [| 0x9e50; case |] in
    let m = random_model st in
    let on = solve_with true m in
    let off = solve_with false m in
    if on.Solver.status <> off.Solver.status then
      Alcotest.failf "case %d: status %a with presolve, %a without" case
        Solver.pp_status on.Solver.status Solver.pp_status off.Solver.status;
    if on.Solver.status = Solver.Optimal then begin
      incr optimal;
      let scale = 1. +. Float.abs off.Solver.obj in
      if Float.abs (on.Solver.obj -. off.Solver.obj) > 1e-5 *. scale then
        Alcotest.failf "case %d: obj %g with presolve, %g without" case
          on.Solver.obj off.Solver.obj;
      (match
         (Certify.check_compiled ~tols:Certify.default_tolerances (Certify.compile m)
            on.Solver.values)
           .Certify.failure
       with
      | None -> ()
      | Some why ->
        Alcotest.failf "case %d: restored point infeasible: %s" case why)
    end
  done;
  (* the suite is vacuous if almost everything comes out infeasible *)
  Alcotest.(check bool)
    (Printf.sprintf "enough optimal cases (%d/%d)" !optimal cases)
    true (!optimal >= 15)

(* --- bilevel encodings: known optima survive presolve ------------------ *)

let fig1 = Wan.Generators.fig1 ()

let fig1_paths () =
  Netpath.Path_set.compute ~n_primary:2 ~n_backup:0 fig1 [ (1, 3); (2, 3) ]

let fig1_paths' = fig1_paths ()

let bilevel spec envelope =
  let options = { Raha.Analysis.default_options with spec } in
  Raha.Analysis.analyze ~options fig1 fig1_paths' envelope

(* the reference solve: the built bilevel model straight into
   branch-and-bound, no presolve, no screening hints *)
let bilevel_unpresolved spec envelope =
  let built = Raha.Bilevel.build spec fig1 fig1_paths' envelope in
  let sol = Solver.solve ~presolve:false built.Raha.Bilevel.model in
  (sol.Solver.status, Linexpr.eval sol.Solver.values built.Raha.Bilevel.degradation)

let spec_k1 encoding =
  {
    Raha.Bilevel.default_spec with
    Raha.Bilevel.max_failures = Some 1;
    goal = Raha.Bilevel.Max_degradation;
    encoding;
  }

let joint_envelope () =
  Traffic.Envelope.around ~slack:0.5
    (Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ])

let test_bilevel_strong_duality () =
  (* fig1 joint worst case is degradation 9 (test_raha); presolve's
     tightened big-Ms must not cut it off *)
  let spec = spec_k1 (Raha.Bilevel.Strong_duality { levels = 5 }) in
  let on = bilevel spec (joint_envelope ()) in
  let off_status, off_deg = bilevel_unpresolved spec (joint_envelope ()) in
  Alcotest.(check bool) "optimal with presolve" true
    (on.Raha.Analysis.status = Solver.Optimal);
  Alcotest.(check bool) "optimal without" true (off_status = Solver.Optimal);
  check_float "degradation 9 with presolve" 9. on.Raha.Analysis.degradation;
  check_float "degradation 9 without" 9. off_deg

let test_bilevel_kkt () =
  let spec = spec_k1 Raha.Bilevel.Kkt in
  let on = bilevel spec (joint_envelope ()) in
  Alcotest.(check bool) "optimal" true (on.Raha.Analysis.status = Solver.Optimal);
  check_float "degradation 9" 9. on.Raha.Analysis.degradation

let test_bilevel_fixed_demand () =
  let spec = spec_k1 (Raha.Bilevel.Strong_duality { levels = 5 }) in
  let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  let on = bilevel spec (Traffic.Envelope.fixed d) in
  check_float "degradation 7" 7. on.Raha.Analysis.degradation

(* --- golden digest: the reductions of a bilevel corpus, bit for bit --- *)

(* Presolve over 240 bilevel models (fig1 and four africa-like WANs, two
   path sets, KKT with k = 1 and with T = 1e-5, strong duality with 4 and
   5 levels, three envelopes, two objectives), about 11k binaries probed.
   The digest covers every stat and, in %h, the reduced model's bounds,
   coefficients and right-hand sides, so it moves when any reduction
   moves a bit: a change meant to speed presolve up must leave it be. *)
let presolve_digest () =
  let buf = Buffer.create (1 lsl 20) in
  let add_stats tag (s : Presolve.stats) =
    Printf.bprintf buf "%s %d %d %d %d %d %d %d\n" tag s.Presolve.passes s.rows_removed
      s.cols_fixed s.bounds_tightened s.big_ms_tightened s.probed s.probe_fixed
  in
  let probed = ref 0 in
  let add = function
    | Presolve.Infeasible s ->
      probed := !probed + s.Presolve.probed;
      add_stats "infeasible" s
    | Presolve.Reduced { model; stats = s; _ } ->
      probed := !probed + s.Presolve.probed;
      add_stats "reduced" s;
      let lb, ub = Model.bounds model in
      Array.iteri (fun j l -> Printf.bprintf buf "%h %h;" l ub.(j)) lb;
      Array.iter
        (fun (c : Model.cons) ->
          Linexpr.iter (fun j a -> Printf.bprintf buf "%d:%h " j a) c.Model.lhs;
          Printf.bprintf buf "<> %h\n" c.Model.rhs)
        (Model.conss model)
  in
  let topos =
    (Wan.Generators.fig1 (), [ (1, 3); (2, 3) ])
    :: List.concat_map
         (fun seed ->
           List.map
             (fun n ->
               ( Wan.Generators.africa_like ~seed ~n (),
                 [ (0, n - 3); (1, n - 2); (2, n - 1) ] ))
             [ 6; 8 ])
         [ 1; 5 ]
  in
  let encodings =
    [
      (Raha.Bilevel.Kkt, Some 1, None);
      (Raha.Bilevel.Kkt, None, Some 1e-5);
      (Raha.Bilevel.Strong_duality { levels = 4 }, None, Some 1e-5);
      (Raha.Bilevel.Strong_duality { levels = 5 }, Some 1, None);
    ]
  in
  let objectives =
    [ Te.Formulation.Total_flow; Te.Formulation.Max_min { bins = 3; ratio = 1. } ]
  in
  List.iter
    (fun (topo, pairs) ->
      let d =
        Traffic.Demand.of_list (List.mapi (fun i p -> (p, 10. +. (2. *. float i))) pairs)
      in
      let envelopes =
        [
          Traffic.Envelope.fixed d; Traffic.Envelope.around ~slack:0.5 d;
          Traffic.Envelope.from_zero ~slack:0.3 d;
        ]
      in
      List.iter
        (fun n_backup ->
          let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup topo pairs in
          List.iter
            (fun (encoding, max_failures, threshold) ->
              List.iter
                (fun env ->
                  List.iter
                    (fun objective ->
                      let spec =
                        {
                          Raha.Bilevel.default_spec with
                          Raha.Bilevel.objective;
                          encoding;
                          max_failures;
                          threshold;
                        }
                      in
                      let built = Raha.Bilevel.build spec topo paths env in
                      add (Presolve.presolve built.Raha.Bilevel.model))
                    objectives)
                envelopes)
            encodings)
        [ 1; 0 ])
    topos;
  (!probed, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_golden_digest () =
  let probed, digest = presolve_digest () in
  Alcotest.(check bool)
    (Printf.sprintf "corpus probes >= 5000 binaries (%d)" probed)
    true (probed >= 5000);
  Alcotest.(check string) "presolve digest" "469965bb5b1099849013ca74f618710b" digest

let suite =
  [
    ("singleton row to bound", `Quick, test_singleton_row);
    ("fixed variable substitution", `Quick, test_fixed_substitution);
    ("redundant row removal", `Quick, test_redundant_row);
    ("forcing row fixes", `Quick, test_forcing_row);
    ("infeasible row detected", `Quick, test_infeasible_row);
    ("integer infeasibility detected", `Quick, test_integer_infeasible);
    ("big-M tightening", `Quick, test_bigm_tightening);
    ("probing fixes binary", `Quick, test_probing_fixes_binary);
    ("probing past the fixpoint's pass limit", `Quick, test_probing_chain_past_max_passes);
    ("probing union tightens a continuous bound", `Quick, test_probing_union_tightens_continuous);
    ("warm start and hints translate", `Quick, test_warm_start_and_hints_translate);
    ("stats counters exported", `Quick, test_stats_counters_exported);
    ("differential: presolve on vs off", `Quick, test_differential);
    ("bilevel strong duality optimum survives", `Quick, test_bilevel_strong_duality);
    ("bilevel kkt optimum survives", `Quick, test_bilevel_kkt);
    ("bilevel fixed demand optimum survives", `Quick, test_bilevel_fixed_demand);
    ("presolve golden digest", `Quick, test_golden_digest);
  ]
