(* Tests for the MILP substrate: simplex correctness on hand-solved LPs,
   branch-and-bound on small MILPs, linearization gadgets, and qcheck
   properties (returned points are feasible; objective matches the point). *)

open Milp

let feq ?(eps = 1e-6) a b = Float.abs (a -. b) <= eps

let check_float what expected got =
  Alcotest.(check (float 1e-6)) what expected got

let lp_opt ?(options = Solver.default_options) model =
  let sol = Solver.solve ~options model in
  match sol.Solver.status with
  | Solver.Optimal -> sol
  | st ->
    Alcotest.failf "expected optimal, got %a on model %s" Solver.pp_status st
      (Model.name model)

(* --- simplex unit tests ------------------------------------------------ *)

let test_lp_basic () =
  (* max 3x + 2y s.t. x + y <= 4; x + 3y <= 6; x,y >= 0 -> (4,0), obj 12 *)
  let m = Model.create ~name:"lp_basic" () in
  let x = Model.continuous m "x" and y = Model.continuous m "y" in
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]) Model.Le 4.;
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (3., y.vid) ]) Model.Le 6.;
  Model.set_objective m Model.Maximize (Linexpr.of_terms [ (3., x.vid); (2., y.vid) ]);
  let sol = lp_opt m in
  check_float "objective" 12. sol.Solver.obj;
  check_float "x" 4. (Solver.value sol x);
  check_float "y" 0. (Solver.value sol y)

let test_lp_degenerate () =
  (* degenerate vertex: max x + y s.t. x <= 1; y <= 1; x + y <= 2 -> 2 *)
  let m = Model.create () in
  let x = Model.continuous m "x" and y = Model.continuous m "y" in
  Model.add_cons m (Linexpr.var x.vid) Model.Le 1.;
  Model.add_cons m (Linexpr.var y.vid) Model.Le 1.;
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]) Model.Le 2.;
  Model.set_objective m Model.Maximize (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]);
  check_float "objective" 2. (lp_opt m).Solver.obj

let test_lp_equality () =
  (* min 2x + 3y s.t. x + y = 10; x - y >= 2; x,y >= 0 -> x=10,y=0 obj 20 *)
  let m = Model.create () in
  let x = Model.continuous m "x" and y = Model.continuous m "y" in
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]) Model.Eq 10.;
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (-1., y.vid) ]) Model.Ge 2.;
  Model.set_objective m Model.Minimize (Linexpr.of_terms [ (2., x.vid); (3., y.vid) ]);
  let sol = lp_opt m in
  check_float "objective" 20. sol.Solver.obj;
  check_float "x" 10. (Solver.value sol x);
  check_float "y" 0. (Solver.value sol y)

let test_lp_infeasible () =
  let m = Model.create () in
  let x = Model.continuous m "x" in
  Model.add_cons m (Linexpr.var x.vid) Model.Le 1.;
  Model.add_cons m (Linexpr.var x.vid) Model.Ge 2.;
  Model.set_objective m Model.Maximize (Linexpr.var x.vid);
  let sol = Solver.solve m in
  Alcotest.(check bool) "infeasible" true (sol.Solver.status = Solver.Infeasible)

let test_lp_unbounded () =
  let m = Model.create () in
  let x = Model.continuous m "x" in
  let y = Model.continuous m "y" in
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (-1., y.vid) ]) Model.Le 1.;
  Model.set_objective m Model.Maximize (Linexpr.var x.vid);
  let sol = Solver.solve m in
  Alcotest.(check bool) "unbounded" true (sol.Solver.status = Solver.Unbounded)

let test_lp_negative_bounds () =
  (* variables with negative lower bounds *)
  let m = Model.create () in
  let x = Model.continuous ~lb:(-5.) ~ub:5. m "x" in
  let y = Model.continuous ~lb:(-3.) ~ub:8. m "y" in
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]) Model.Le 2.;
  Model.set_objective m Model.Minimize (Linexpr.of_terms [ (1., x.vid); (2., y.vid) ]);
  let sol = lp_opt m in
  (* min x + 2y: push both to lower bounds: -5 + (-6) = -11, feasible *)
  check_float "objective" (-11.) sol.Solver.obj

let test_lp_free_variable () =
  (* free variable: min x s.t. x >= -7 via constraint only *)
  let m = Model.create () in
  let x = Model.continuous ~lb:Float.neg_infinity ~ub:Float.infinity m "x" in
  Model.add_cons m (Linexpr.var x.vid) Model.Ge (-7.);
  Model.set_objective m Model.Minimize (Linexpr.var x.vid);
  check_float "objective" (-7.) (lp_opt m).Solver.obj

let test_lp_fixed_vars () =
  let m = Model.create () in
  let x = Model.continuous ~lb:3. ~ub:3. m "x" in
  let y = Model.continuous ~ub:10. m "y" in
  Model.add_cons m (Linexpr.of_terms [ (2., x.vid); (1., y.vid) ]) Model.Le 10.;
  Model.set_objective m Model.Maximize (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]);
  let sol = lp_opt m in
  check_float "objective" 7. sol.Solver.obj;
  check_float "x stays fixed" 3. (Solver.value sol x)

let test_lp_no_constraints () =
  let m = Model.create () in
  let x = Model.continuous ~lb:1. ~ub:4. m "x" in
  Model.set_objective m Model.Maximize (Linexpr.var x.vid);
  check_float "objective" 4. (lp_opt m).Solver.obj

let test_lp_bound_override () =
  let m = Model.create () in
  let x = Model.continuous ~ub:10. m "x" in
  Model.set_objective m Model.Maximize (Linexpr.var x.vid);
  let _, ub = Model.bounds m in
  let lb, _ = Model.bounds m in
  ub.(x.vid) <- 2.5;
  (match Simplex.solve ~lb ~ub m with
  | Simplex.Optimal { obj; _ } -> check_float "override respected" 2.5 obj
  | _ -> Alcotest.fail "expected optimal")

(* --- MILP tests --------------------------------------------------------- *)

let test_milp_knapsack () =
  (* max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary -> a+c = 17?
     options: a+b (w 7 > 6 no); a+c (w 5, v 17); b+c (w 6, v 20) -> 20 *)
  let m = Model.create () in
  let a = Model.binary m "a" and b = Model.binary m "b" and c = Model.binary m "c" in
  Model.add_cons m
    (Linexpr.of_terms [ (3., a.vid); (4., b.vid); (2., c.vid) ])
    Model.Le 6.;
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms [ (10., a.vid); (13., b.vid); (7., c.vid) ]);
  let sol = lp_opt m in
  check_float "objective" 20. sol.Solver.obj;
  Alcotest.(check bool) "b chosen" true (Solver.bool_value sol b);
  Alcotest.(check bool) "c chosen" true (Solver.bool_value sol c)

let test_milp_integer_rounding () =
  (* max x s.t. 2x <= 7, x integer -> 3 (LP gives 3.5) *)
  let m = Model.create () in
  let x = Model.integer ~ub:100. m "x" in
  Model.add_cons m (Linexpr.var ~coeff:2. x.vid) Model.Le 7.;
  Model.set_objective m Model.Maximize (Linexpr.var x.vid);
  check_float "objective" 3. (lp_opt m).Solver.obj

let test_milp_infeasible_integrality () =
  (* 2x = 5 with x integer is infeasible *)
  let m = Model.create () in
  let x = Model.integer ~ub:10. m "x" in
  Model.add_cons m (Linexpr.var ~coeff:2. x.vid) Model.Eq 5.;
  Model.set_objective m Model.Maximize (Linexpr.var x.vid);
  let sol = Solver.solve m in
  Alcotest.(check bool) "infeasible" true (sol.Solver.status = Solver.Infeasible)

let test_milp_warm_start () =
  let m = Model.create () in
  let a = Model.binary m "a" and b = Model.binary m "b" in
  Model.add_cons m (Linexpr.of_terms [ (1., a.vid); (1., b.vid) ]) Model.Le 1.;
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms [ (2., a.vid); (3., b.vid) ]);
  let warm = [| 0.; 1. |] in
  let options = { Solver.default_options with warm_start = Some warm } in
  let sol = lp_opt ~options m in
  check_float "objective" 3. sol.Solver.obj

let test_milp_bigger () =
  (* assignment-style MILP: 4 tasks to 4 machines, minimize cost *)
  let costs =
    [| [| 9.; 2.; 7.; 8. |]; [| 6.; 4.; 3.; 7. |]; [| 5.; 8.; 1.; 8. |]; [| 7.; 6.; 9.; 4. |] |]
  in
  let m = Model.create () in
  let x = Array.init 4 (fun i -> Array.init 4 (fun j -> Model.binary m (Printf.sprintf "x%d%d" i j))) in
  for i = 0 to 3 do
    Model.add_cons m (Linexpr.of_terms (List.init 4 (fun j -> (1., x.(i).(j).Model.vid)))) Model.Eq 1.;
    Model.add_cons m (Linexpr.of_terms (List.init 4 (fun j -> (1., x.(j).(i).Model.vid)))) Model.Eq 1.
  done;
  let obj =
    Linexpr.sum
      (List.concat_map
         (fun i -> List.init 4 (fun j -> Linexpr.var ~coeff:costs.(i).(j) x.(i).(j).Model.vid))
         [ 0; 1; 2; 3 ])
  in
  Model.set_objective m Model.Minimize obj;
  (* optimum: 2 + 3 + 5 + 4 = 14? rows: t0->m1 (2), t1->m2 (3), t2->m0 (5), t3->m3 (4) = 14;
     alternative t2->m2 (1): t0->m1 2, t1->m0 6, t2->m2 1, t3->m3 4 = 13 *)
  check_float "objective" 13. (lp_opt m).Solver.obj

let test_milp_timeout_returns_incumbent () =
  (* A model the solver can find a feasible point for quickly; with a node
     limit of 1..n it must still report a valid bound bracketing. *)
  let m = Model.create () in
  let xs = Array.init 12 (fun i -> Model.binary m (Printf.sprintf "b%d" i)) in
  Array.iteri
    (fun i x ->
      if i > 0 then
        Model.add_cons m
          (Linexpr.of_terms [ (1., x.Model.vid); (1., xs.(i - 1).Model.vid) ])
          Model.Le 1.)
    xs;
  Model.set_objective m Model.Maximize
    (Linexpr.sum (Array.to_list (Array.map (fun x -> Linexpr.var x.Model.vid) xs)));
  let options = { Solver.default_options with max_nodes = 10_000 } in
  let sol = Solver.solve ~options m in
  Alcotest.(check bool) "solved" true (Solver.has_point sol);
  Alcotest.(check bool) "bound >= obj" true (sol.Solver.bound +. 1e-6 >= sol.Solver.obj);
  check_float "independent set on path of 12" 6. sol.Solver.obj

(* --- linearization gadgets ---------------------------------------------- *)

let test_indicator_ge0 () =
  (* e = s - 2 with s integer in [0,4]: y = 1 iff s >= 2 *)
  let check_at s_fixed expect =
    let m = Model.create () in
    let s = Model.integer ~lb:s_fixed ~ub:s_fixed m "s" in
    let e = Linexpr.add (Linexpr.var s.Model.vid) (Linexpr.const (-2.)) in
    let y = Linearize.indicator_ge0 m ~name:"y" e ~lb:(-2.) ~ub:2. in
    Model.set_objective m Model.Maximize Linexpr.zero;
    let sol = lp_opt m in
    Alcotest.(check bool)
      (Printf.sprintf "indicator at s=%g" s_fixed)
      expect (Solver.bool_value sol y)
  in
  check_at 0. false;
  check_at 1. false;
  check_at 2. true;
  check_at 4. true

let test_bool_ops () =
  let run build expect =
    let m = Model.create () in
    let a = Model.binary m "a" and b = Model.binary m "b" in
    Model.add_cons m (Linexpr.var a.Model.vid) Model.Eq 1.;
    Model.add_cons m (Linexpr.var b.Model.vid) Model.Eq 0.;
    let y = build m a b in
    Model.set_objective m Model.Maximize Linexpr.zero;
    let sol = lp_opt m in
    Alcotest.(check bool) "bool op" expect (Solver.bool_value sol y)
  in
  run (fun m a b -> Linearize.bool_and m ~name:"and" [ a; b ]) false

(* --- qcheck properties --------------------------------------------------- *)

(* Random small LPs: returned optimal points must satisfy all constraints
   and reproduce the reported objective. *)
let gen_lp =
  QCheck2.Gen.(
    let* nv = int_range 1 5 in
    let* nc = int_range 1 6 in
    let* coeffs =
      list_size (return (nc * nv)) (float_range (-4.) 4.)
    in
    let* rhs = list_size (return nc) (float_range 0.5 20.) in
    let* obj = list_size (return nv) (float_range (-3.) 3.) in
    return (nv, nc, coeffs, rhs, obj))

let build_lp (nv, nc, coeffs, rhs, obj) =
  let m = Model.create () in
  let xs = Array.init nv (fun i -> Model.continuous ~ub:50. m (Printf.sprintf "x%d" i)) in
  let coeffs = Array.of_list coeffs and rhs = Array.of_list rhs in
  for i = 0 to nc - 1 do
    let terms = List.init nv (fun j -> (coeffs.((i * nv) + j), xs.(j).Model.vid)) in
    Model.add_cons m (Linexpr.of_terms terms) Model.Le rhs.(i)
  done;
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms (List.mapi (fun j c -> (c, xs.(j).Model.vid)) obj));
  m

let prop_lp_point_feasible =
  QCheck2.Test.make ~name:"simplex: optimal point is feasible" ~count:300 gen_lp
    (fun spec ->
      let m = build_lp spec in
      match Simplex.solve m with
      | Simplex.Optimal { obj; values } ->
        Model.check_feasible ~tol:1e-5 m values = None
        && feq ~eps:1e-5 obj (Model.objective_value m values)
      | Simplex.Infeasible | Simplex.Unbounded -> true
      | Simplex.Iter_limit -> false)

(* Origin is feasible for these LPs (x = 0, rhs > 0), so they are never
   reported infeasible. *)
let prop_lp_never_infeasible =
  QCheck2.Test.make ~name:"simplex: origin-feasible LPs are not infeasible" ~count:300
    gen_lp (fun spec ->
      match Simplex.solve (build_lp spec) with
      | Simplex.Infeasible -> false
      | _ -> true)

(* MILP optimum <= LP relaxation optimum (maximization). *)
let prop_milp_bounded_by_lp =
  QCheck2.Test.make ~name:"b&b: MILP optimum <= LP relaxation" ~count:100
    QCheck2.Gen.(
      let* nv = int_range 1 4 in
      let* nc = int_range 1 4 in
      let* coeffs = list_size (return (nc * nv)) (float_range 0.1 4.) in
      let* rhs = list_size (return nc) (float_range 1. 15.) in
      let* obj = list_size (return nv) (float_range 0.1 3.) in
      return (nv, nc, coeffs, rhs, obj))
    (fun (nv, nc, coeffs, rhs, obj) ->
      let build kind =
        let m = Model.create () in
        let xs =
          Array.init nv (fun i ->
              Model.add_var m ~name:(Printf.sprintf "x%d" i) ~kind ~lb:0. ~ub:10.)
        in
        let coeffs = Array.of_list coeffs and rhs = Array.of_list rhs in
        for i = 0 to nc - 1 do
          let terms = List.init nv (fun j -> (coeffs.((i * nv) + j), xs.(j).Model.vid)) in
          Model.add_cons m (Linexpr.of_terms terms) Model.Le rhs.(i)
        done;
        Model.set_objective m Model.Maximize
          (Linexpr.of_terms (List.mapi (fun j c -> (c, xs.(j).Model.vid)) obj));
        m
      in
      let lp = Solver.solve (build Model.Continuous) in
      let ip = Solver.solve (build Model.Integer) in
      match (lp.Solver.status, ip.Solver.status) with
      | Solver.Optimal, Solver.Optimal -> ip.Solver.obj <= lp.Solver.obj +. 1e-5
      | _ -> true)

(* B&B integral points satisfy the model including integrality. *)
let prop_milp_point_feasible =
  QCheck2.Test.make ~name:"b&b: incumbent is integral-feasible" ~count:100 gen_lp
    (fun (nv, nc, coeffs, rhs, obj) ->
      let m = Model.create () in
      let xs =
        Array.init nv (fun i ->
            Model.add_var m ~name:(Printf.sprintf "x%d" i) ~kind:Model.Integer ~lb:0. ~ub:8.)
      in
      let coeffs = Array.of_list coeffs and rhs = Array.of_list rhs in
      for i = 0 to nc - 1 do
        let terms = List.init nv (fun j -> (coeffs.((i * nv) + j), xs.(j).Model.vid)) in
        Model.add_cons m (Linexpr.of_terms terms) Model.Le rhs.(i)
      done;
      Model.set_objective m Model.Maximize
        (Linexpr.of_terms (List.mapi (fun j c -> (c, xs.(j).Model.vid)) obj));
      match Solver.solve m with
      | { Solver.status = Solver.Optimal; values; _ } ->
        Model.check_feasible ~tol:1e-5 m values = None
      | _ -> true)


(* --- linexpr algebra ----------------------------------------------------- *)

let test_linexpr_algebra () =
  let e = Linexpr.of_terms ~const:2. [ (3., 0); (1., 1); (-3., 0) ] in
  let terms = Alcotest.(check (list (pair (float 1e-9) int))) in
  (* x0's coefficients cancel, so its term is dropped *)
  terms "coalesced" [ (1., 1) ] (Linexpr.terms e);
  check_float "const" 2. (Linexpr.constant e);
  let f = Linexpr.add (Linexpr.var ~coeff:2. 2) (Linexpr.scale 3. e) in
  check_float "scaled const" 6. (Linexpr.constant f);
  terms "scaled and added" [ (3., 1); (2., 2) ] (Linexpr.terms f);
  let g = Linexpr.sub f f in
  Alcotest.(check bool) "self-sub is constant" true (Linexpr.is_constant g);
  check_float "self-sub zero" 0. (Linexpr.constant g);
  check_float "eval" (2. +. 1. *. 5.) (Linexpr.eval [| 9.; 5.; 9. |] e)

let prop_linexpr_eval_linear =
  QCheck2.Test.make ~name:"linexpr: eval is linear" ~count:200
    QCheck2.Gen.(
      let* terms = list_size (int_range 1 6) (pair (float_range (-5.) 5.) (int_range 0 4)) in
      let* k = float_range (-3.) 3. in
      let* xs = list_size (return 5) (float_range (-10.) 10.) in
      return (terms, k, xs))
    (fun (terms, k, xs) ->
      let e = Linexpr.of_terms terms in
      let v = Array.of_list xs in
      let lhs = Linexpr.eval v (Linexpr.scale k e) in
      let rhs = k *. Linexpr.eval v e in
      Float.abs (lhs -. rhs) < 1e-6 *. (1. +. Float.abs rhs))

(* --- model checker -------------------------------------------------------- *)

let test_check_feasible () =
  let m = Model.create () in
  let x = Model.continuous ~ub:5. m "x" in
  let y = Model.binary m "y" in
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (2., y.vid) ]) Model.Le 6.;
  Alcotest.(check bool) "feasible point" true (Model.check_feasible m [| 4.; 1. |] = None);
  Alcotest.(check bool) "bound violation" true (Model.check_feasible m [| 6.; 0. |] <> None);
  Alcotest.(check bool) "integrality violation" true
    (Model.check_feasible m [| 1.; 0.5 |] <> None);
  Alcotest.(check bool) "constraint violation" true
    (Model.check_feasible m [| 5.; 1. |] <> None)

(* --- simplex extras -------------------------------------------------------- *)

let test_lp_ge_heavy () =
  (* covering LP: min x + y s.t. x + y >= 4; x >= 1; y >= 1 -> 4 *)
  let m = Model.create () in
  let x = Model.continuous m "x" and y = Model.continuous m "y" in
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]) Model.Ge 4.;
  Model.add_cons m (Linexpr.var x.vid) Model.Ge 1.;
  Model.add_cons m (Linexpr.var y.vid) Model.Ge 1.;
  Model.set_objective m Model.Minimize (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]);
  check_float "objective" 4. (lp_opt m).Solver.obj

let test_lp_redundant_rows () =
  (* duplicated and dominated rows must not confuse the basis *)
  let m = Model.create () in
  let x = Model.continuous m "x" in
  for _ = 1 to 5 do
    Model.add_cons m (Linexpr.var x.vid) Model.Le 3.
  done;
  Model.add_cons m (Linexpr.var x.vid) Model.Le 10.;
  Model.add_cons m (Linexpr.var ~coeff:2. x.vid) Model.Le 6.;
  Model.set_objective m Model.Maximize (Linexpr.var x.vid);
  check_float "objective" 3. (lp_opt m).Solver.obj

let test_lp_equality_system () =
  (* pure equality system with a unique solution: x+y=3, x-y=1 -> (2,1) *)
  let m = Model.create () in
  let x = Model.continuous m "x" and y = Model.continuous m "y" in
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]) Model.Eq 3.;
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (-1., y.vid) ]) Model.Eq 1.;
  Model.set_objective m Model.Maximize (Linexpr.of_terms [ (5., x.vid); (7., y.vid) ]);
  let sol = lp_opt m in
  check_float "x" 2. (Solver.value sol x);
  check_float "y" 1. (Solver.value sol y)

let test_milp_branch_priority_respected () =
  (* both orders must find the same optimum regardless of priority *)
  let build () =
    let m = Model.create () in
    let a = Model.binary m "a" and b = Model.binary m "b" and c = Model.binary m "c" in
    Model.add_cons m
      (Linexpr.of_terms [ (2., a.vid); (3., b.vid); (4., c.vid) ])
      Model.Le 5.;
    Model.set_objective m Model.Maximize
      (Linexpr.of_terms [ (2., a.vid); (3., b.vid); (4., c.vid) ]);
    m
  in
  let sol1 = Solver.solve (build ()) in
  let options =
    { Solver.default_options with branch_priority = (fun id -> -id) }
  in
  let sol2 = Solver.solve ~options (build ()) in
  check_float "same optimum" sol1.Solver.obj sol2.Solver.obj

let test_plunge_hint_seeds_incumbent () =
  (* an exact hint must produce an optimal incumbent even with a node
     budget of 1 *)
  let m = Model.create () in
  let a = Model.binary m "a" and b = Model.binary m "b" in
  Model.add_cons m (Linexpr.of_terms [ (1., a.vid); (1., b.vid) ]) Model.Le 1.;
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms [ (5., a.vid); (3., b.vid) ]);
  let options =
    {
      Solver.default_options with
      max_nodes = 1;
      plunge_hints = [ [ (a.vid, 1.); (b.vid, 0.) ] ];
    }
  in
  let sol = Solver.solve ~options m in
  Alcotest.(check bool) "has incumbent" true (Solver.has_point sol);
  check_float "optimal value from hint" 5. sol.Solver.obj

let prop_row_scaling_invariant =
  (* scaling a constraint row by a positive factor must not change the
     optimum *)
  QCheck2.Test.make ~name:"simplex: row scaling invariance" ~count:100
    QCheck2.Gen.(
      let* nv = int_range 1 4 in
      let* coeffs = list_size (return (3 * nv)) (float_range 0.2 4.) in
      let* rhs = list_size (return 3) (float_range 1. 20.) in
      let* scale = float_range 0.1 10. in
      return (nv, coeffs, rhs, scale))
    (fun (nv, coeffs, rhs, scale) ->
      let build k =
        let m = Model.create () in
        let xs = Array.init nv (fun i -> Model.continuous ~ub:50. m (Printf.sprintf "x%d" i)) in
        let coeffs = Array.of_list coeffs and rhs = Array.of_list rhs in
        for i = 0 to 2 do
          let f = if i = 1 then k else 1. in
          let terms = List.init nv (fun j -> (f *. coeffs.((i * nv) + j), xs.(j).Model.vid)) in
          Model.add_cons m (Linexpr.of_terms terms) Model.Le (f *. rhs.(i))
        done;
        Model.set_objective m Model.Maximize
          (Linexpr.sum (Array.to_list (Array.map (fun (v : Model.var) -> Linexpr.var v.Model.vid) xs)));
        m
      in
      match (Simplex.solve (build 1.), Simplex.solve (build scale)) with
      | Simplex.Optimal { obj = a; _ }, Simplex.Optimal { obj = b; _ } ->
        Float.abs (a -. b) < 1e-5 *. (1. +. Float.abs a)
      | _ -> false)

(* a two-binary knapsack: a few pivots and nodes per solve *)
let solve_small_milp () =
  let m = Model.create () in
  let a = Model.binary m "a" and b = Model.binary m "b" in
  Model.add_cons m (Linexpr.of_terms [ (3., a.vid); (4., b.vid) ]) Model.Le 5.;
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms [ (2., a.vid); (3., b.vid) ]);
  ignore (Solver.solve m)

let test_stats_scope () =
  (* per-query scopes: hook deltas isolate each query's counter activity
     while the cumulative values survive *)
  let solve_one = solve_small_milp in
  let pivots_before = Lp_stats.read Lp_stats.pivots () in
  let s1 = Lp_stats.scope_enter () in
  solve_one ();
  let r1 = Lp_stats.scope_exit s1 in
  let d1 = List.assoc "simplex" r1.Lp_stats.scope_counters in
  Alcotest.(check bool) "scope 1 saw pivots" true (d1 > 0);
  (* a second scope starts from a clean delta even though the cumulative
     counters kept growing *)
  let s2 = Lp_stats.scope_enter () in
  let r2 = Lp_stats.scope_exit s2 in
  Alcotest.(check int) "empty scope has zero deltas" 0
    (List.fold_left (fun acc (_, d) -> acc + abs d) 0 r2.Lp_stats.scope_counters);
  (* cumulative values untouched by scoping *)
  Alcotest.(check bool) "cumulative pivots grew" true
    (Lp_stats.read Lp_stats.pivots () >= pivots_before + d1)

let test_stats_scope_overlap () =
  (* a scope is only its entry readings: scopes may close in any order,
     and each reports exactly the activity between its own entry and
     exit, measured here against the cumulative pivot counter *)
  let simplex r = List.assoc "simplex" r.Lp_stats.scope_counters in
  let pivots = Lp_stats.read Lp_stats.pivots in
  let p0 = pivots () in
  let s1 = Lp_stats.scope_enter () in
  solve_small_milp ();
  let p1 = pivots () in
  let s2 = Lp_stats.scope_enter () in
  solve_small_milp ();
  let p2 = pivots () in
  let r1 = Lp_stats.scope_exit s1 in
  solve_small_milp ();
  let p3 = pivots () in
  let r2 = Lp_stats.scope_exit s2 in
  Alcotest.(check bool) "each solve pivots" true (p1 > p0 && p2 > p1 && p3 > p2);
  Alcotest.(check int) "outer scope, closed first" (p2 - p0) (simplex r1);
  Alcotest.(check int) "inner scope, closed last" (p3 - p1) (simplex r2)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_linexpr_eval_linear;
      prop_lp_point_feasible;
      prop_lp_never_infeasible;
      prop_milp_bounded_by_lp;
      prop_milp_point_feasible;
      prop_row_scaling_invariant;
    ]

let suite =
  [
    ("lp basic", `Quick, test_lp_basic);
    ("lp degenerate", `Quick, test_lp_degenerate);
    ("lp equality", `Quick, test_lp_equality);
    ("lp infeasible", `Quick, test_lp_infeasible);
    ("lp unbounded", `Quick, test_lp_unbounded);
    ("lp negative bounds", `Quick, test_lp_negative_bounds);
    ("lp free variable", `Quick, test_lp_free_variable);
    ("lp fixed vars", `Quick, test_lp_fixed_vars);
    ("lp no constraints", `Quick, test_lp_no_constraints);
    ("lp bound override", `Quick, test_lp_bound_override);
    ("milp knapsack", `Quick, test_milp_knapsack);
    ("milp integer rounding", `Quick, test_milp_integer_rounding);
    ("milp infeasible integrality", `Quick, test_milp_infeasible_integrality);
    ("milp warm start", `Quick, test_milp_warm_start);
    ("milp assignment", `Quick, test_milp_bigger);
    ("milp limits report bound", `Quick, test_milp_timeout_returns_incumbent);
    ("linearize indicator", `Quick, test_indicator_ge0);
    ("linearize bool ops", `Quick, test_bool_ops);
    ("linexpr algebra", `Quick, test_linexpr_algebra);
    ("model check_feasible", `Quick, test_check_feasible);
    ("lp ge-heavy", `Quick, test_lp_ge_heavy);
    ("lp redundant rows", `Quick, test_lp_redundant_rows);
    ("lp equality system", `Quick, test_lp_equality_system);
    ("milp branch priority", `Quick, test_milp_branch_priority_respected);
    ("plunge hint seeds incumbent", `Quick, test_plunge_hint_seeds_incumbent);
    ("stats scope", `Quick, test_stats_scope);
    ("stats scopes overlap", `Quick, test_stats_scope_overlap);
  ]
  @ qcheck_tests

