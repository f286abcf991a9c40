(* Tests for the MILP presolve/postsolve engine: each reduction in
   isolation, the postsolve index mapping, a presolve-on/off differential
   suite over random MILPs, and the bilevel encodings' known optima
   (big-M tightening must never cut off the known worst case). *)

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
    (Model.check_feasible ~tol:1e-5 m sol.Solver.values = None)

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
      "certify-checks"; "certify-failures"; "cuts-generated"; "cuts-applied";
      "cuts-pruned"; "cut-audit-failures"; "batch-prepares"; "batch-overlays";
      "batch-warm-hits"; "sb-probes"; "pseudocost-updates"; "heuristic-solutions";
      "heuristic-rejections";
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
      (match Model.check_feasible ~tol:1e-5 m on.Solver.values with
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
    ("warm start and hints translate", `Quick, test_warm_start_and_hints_translate);
    ("stats counters exported", `Quick, test_stats_counters_exported);
    ("differential: presolve on vs off", `Quick, test_differential);
    ("bilevel strong duality optimum survives", `Quick, test_bilevel_strong_duality);
    ("bilevel kkt optimum survives", `Quick, test_bilevel_kkt);
    ("bilevel fixed demand optimum survives", `Quick, test_bilevel_fixed_demand);
  ]
