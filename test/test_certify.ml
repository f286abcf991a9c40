(* Tests for the certification layer and the dropped-subtree bound fix:
   branch-and-bound must never claim optimality (or report an unsound
   bound) after dropping a node on a simplex iteration limit, and
   Certify.check must accept genuine answers while flagging corrupted
   points, understated bounds and broken integrality. *)

open Milp

let check_float what expected got =
  Alcotest.(check (float 1e-6)) what expected got

(* max x + y, x,y integer in [0,5], x + y <= 7 -> optimum 7 *)
let drop_model () =
  let m = Model.create ~name:"drop_regression" () in
  let x = Model.integer ~lb:0. ~ub:5. m "x" in
  let y = Model.integer ~lb:0. ~ub:5. m "y" in
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]) Model.Le 7.;
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]);
  m

(* Regression for the silently-dropped-subtree bug: a zero iteration
   budget makes the root LP hit Iter_limit, so the whole tree is dropped
   and only the warm-start incumbent (obj 2) survives. The pre-fix solver
   exhausted the empty heap and reported Optimal with bound = 2; the true
   optimum is 7. Post-fix the outcome degrades to Feasible and the bound
   keeps covering the dropped subtree. *)
let test_iter_limit_drop () =
  let m = drop_model () in
  let options =
    {
      Branch_bound.default with
      Branch_bound.sx_iters = Some 0;
      warm_start = Some [| 1.; 1. |];
    }
  in
  let r = Branch_bound.solve ~options m in
  (match r.Branch_bound.outcome with
  | Branch_bound.Feasible -> ()
  | o ->
    Alcotest.failf "expected Feasible after a dropped subtree, got %s"
      (match o with
      | Branch_bound.Optimal -> "Optimal"
      | Branch_bound.Feasible -> "Feasible"
      | Branch_bound.No_incumbent -> "No_incumbent"
      | Branch_bound.Infeasible -> "Infeasible"
      | Branch_bound.Unbounded -> "Unbounded"));
  check_float "incumbent objective" 2. r.Branch_bound.obj;
  Alcotest.(check bool)
    "bound covers the dropped subtree (>= true optimum 7)" true
    (r.Branch_bound.bound >= 7.)

(* Same forced drop without an incumbent: the pre-fix solver reported
   Infeasible for a feasible model. *)
let test_iter_limit_no_incumbent () =
  let m = drop_model () in
  let options =
    { Branch_bound.default with Branch_bound.sx_iters = Some 0 }
  in
  let r = Branch_bound.solve ~options m in
  Alcotest.(check bool)
    "No_incumbent, not Infeasible" true
    (r.Branch_bound.outcome = Branch_bound.No_incumbent);
  Alcotest.(check bool)
    "bound still covers the dropped root" true
    (r.Branch_bound.bound >= 7.)

(* Property: whatever per-LP iteration budget the search runs under, the
   reported bound must stay above the true (unrestricted) optimum and any
   incumbent must stay below it, in Maximize sense. *)
let test_bound_sound_under_limits () =
  for case = 0 to 15 do
    let rng = Random.State.make [| 0xced1f; case |] in
    let n = 2 + Random.State.int rng 4 in
    let m = Model.create ~name:(Printf.sprintf "sound_%d" case) () in
    let vars =
      Array.init n (fun i ->
          Model.integer ~lb:0. ~ub:(float_of_int (3 + Random.State.int rng 8))
            m
            (Printf.sprintf "v%d" i))
    in
    for c = 0 to 1 + Random.State.int rng 3 do
      let terms =
        Array.to_list
          (Array.map
             (fun (v : Model.var) ->
               (float_of_int (1 + Random.State.int rng 5), v.Model.vid))
             vars)
      in
      let rhs = float_of_int (5 + Random.State.int rng 30) in
      Model.add_cons m
        ~name:(Printf.sprintf "c%d" c)
        (Linexpr.of_terms terms) Model.Le rhs
    done;
    let obj =
      Array.to_list
        (Array.map
           (fun (v : Model.var) ->
             (float_of_int (1 + Random.State.int rng 9), v.Model.vid))
           vars)
    in
    Model.set_objective m Model.Maximize (Linexpr.of_terms obj);
    let reference = Branch_bound.solve m in
    Alcotest.(check bool)
      (Printf.sprintf "case %d: reference solve optimal" case)
      true
      (reference.Branch_bound.outcome = Branch_bound.Optimal);
    let opt = reference.Branch_bound.obj in
    List.iter
      (fun budget ->
        let options =
          { Branch_bound.default with Branch_bound.sx_iters = Some budget }
        in
        let r = Branch_bound.solve ~options m in
        (match r.Branch_bound.outcome with
        | Branch_bound.Infeasible | Branch_bound.Unbounded ->
          Alcotest.failf
            "case %d budget %d: feasible model reported infeasible/unbounded"
            case budget
        | Branch_bound.Optimal | Branch_bound.Feasible ->
          if r.Branch_bound.obj > opt +. 1e-6 then
            Alcotest.failf
              "case %d budget %d: incumbent %g above true optimum %g" case
              budget r.Branch_bound.obj opt
        | Branch_bound.No_incumbent -> ());
        if r.Branch_bound.bound < opt -. 1e-6 then
          Alcotest.failf "case %d budget %d: bound %g below true optimum %g"
            case budget r.Branch_bound.bound opt)
      [ 0; 1; 3; 7 ]
  done

(* --- Certify unit tests ------------------------------------------------ *)

(* max 3x + 2y s.t. x + y <= 4; x + 3y <= 6 -> (4, 0), obj 12 *)
let lp_model () =
  let m = Model.create ~name:"certify_lp" () in
  let x = Model.continuous m "x" and y = Model.continuous m "y" in
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (1., y.vid) ]) Model.Le 4.;
  Model.add_cons m (Linexpr.of_terms [ (1., x.vid); (3., y.vid) ]) Model.Le 6.;
  Model.set_objective m Model.Maximize
    (Linexpr.of_terms [ (3., x.vid); (2., y.vid) ]);
  m

let test_certificate_pass_lp () =
  let checks0 = Lp_stats.read Lp_stats.certify_checks () in
  let sol = Solver.solve (lp_model ()) in
  Alcotest.(check bool) "optimal" true (sol.Solver.status = Solver.Optimal);
  (match sol.Solver.certificate with
  | None -> Alcotest.fail "no certificate issued"
  | Some c ->
    Alcotest.(check bool) "certificate ok" true c.Certify.ok;
    Alcotest.(check bool) "point ok" true c.Certify.point_ok;
    Alcotest.(check bool) "objective ok" true c.Certify.obj_ok;
    Alcotest.(check bool) "bound ok" true c.Certify.bound_ok;
    (* pure LP through the revised engine: the dual certificate applies *)
    Alcotest.(check bool)
      "dual certificate issued and ok" true
      (c.Certify.dual_ok = Some true);
    Alcotest.(check bool)
      "no failure messages" true (c.Certify.failures = []));
  Alcotest.(check bool)
    "certify-checks counter advanced" true
    (Lp_stats.read Lp_stats.certify_checks () > checks0)

(* Certification has no off switch: every answer that carries a point
   comes back with a certificate, with or without presolve, while an
   infeasible model carries neither point nor certificate. *)
let test_certificate_always_issued () =
  List.iter
    (fun (what, model) ->
      List.iter
        (fun presolve ->
          let sol = Solver.solve ~presolve (model ()) in
          let label = Printf.sprintf "%s presolve=%b" what presolve in
          Alcotest.(check bool)
            (label ^ ": optimal") true
            (sol.Solver.status = Solver.Optimal);
          match sol.Solver.certificate with
          | None -> Alcotest.failf "%s: no certificate issued" label
          | Some c ->
            Alcotest.(check bool) (label ^ ": certificate ok") true
              c.Certify.ok)
        [ true; false ])
    [ ("lp", lp_model); ("milp", drop_model) ];
  let m = Model.create ~name:"certify_infeasible" () in
  let x = Model.continuous ~lb:0. ~ub:1. m "x" in
  Model.add_cons m (Linexpr.var x.Model.vid) Model.Ge 2.;
  Model.set_objective m Model.Maximize (Linexpr.var x.Model.vid);
  List.iter
    (fun presolve ->
      let sol = Solver.solve ~presolve m in
      Alcotest.(check bool)
        (Printf.sprintf "infeasible presolve=%b: infeasible" presolve)
        true
        (sol.Solver.status = Solver.Infeasible);
      Alcotest.(check bool)
        (Printf.sprintf "infeasible presolve=%b: no certificate" presolve)
        true
        (sol.Solver.certificate = None))
    [ true; false ]

let test_certificate_bad_point () =
  let m = lp_model () in
  let failures0 = Lp_stats.read Lp_stats.certify_failures () in
  (* claim (5, 5): violates both rows and is inconsistent with obj 12 *)
  let c =
    Certify.check ~model:m ~obj:12. ~bound:12. ~values:[| 5.; 5. |]
      ~statuses:[||] ()
  in
  Alcotest.(check bool) "not ok" false c.Certify.ok;
  Alcotest.(check bool) "point flagged" false c.Certify.point_ok;
  Alcotest.(check bool)
    "residual recorded" true
    (c.Certify.max_primal_residual > 1e-3);
  Alcotest.(check bool)
    "failure message recorded" true (c.Certify.failures <> []);
  Alcotest.(check bool)
    "certify-failures counter advanced" true
    (Lp_stats.read Lp_stats.certify_failures () > failures0)

let test_certificate_bad_bound () =
  let m = lp_model () in
  (* genuine point (4, 0) with obj 12, but a claimed bound of 10 asserts
     obj <= 10 in max form: unsound, must be flagged *)
  let c =
    Certify.check ~model:m ~obj:12. ~bound:10. ~values:[| 4.; 0. |]
      ~statuses:[||] ()
  in
  Alcotest.(check bool) "point fine" true c.Certify.point_ok;
  Alcotest.(check bool) "bound flagged" false c.Certify.bound_ok;
  Alcotest.(check bool)
    "violation magnitude recorded" true
    (c.Certify.bound_violation > 1.);
  Alcotest.(check bool) "not ok" false c.Certify.ok

let test_certificate_open_gap () =
  let m = lp_model () in
  (* bound 20 over obj 12 is fine for a Feasible claim but contradicts a
     claim of optimality under the default gaps *)
  let feas =
    Certify.check ~model:m ~obj:12. ~bound:20. ~values:[| 4.; 0. |]
      ~statuses:[||] ()
  in
  Alcotest.(check bool) "sound for Feasible" true feas.Certify.bound_ok;
  let opt =
    Certify.check ~optimal:true ~model:m ~obj:12. ~bound:20.
      ~values:[| 4.; 0. |] ~statuses:[||] ()
  in
  Alcotest.(check bool) "open gap flagged for Optimal" false
    opt.Certify.bound_ok

let test_certificate_integrality () =
  let m = Model.create ~name:"certify_int" () in
  let x = Model.integer ~lb:0. ~ub:5. m "x" in
  Model.set_objective m Model.Maximize (Linexpr.var x.Model.vid);
  let c =
    Certify.check ~model:m ~obj:2.5 ~bound:5. ~values:[| 2.5 |] ~statuses:[||]
      ()
  in
  Alcotest.(check bool) "fractional integer flagged" false c.Certify.point_ok;
  Alcotest.(check bool)
    "integrality residual recorded" true
    (c.Certify.max_int_residual >= 0.4)

let test_certificate_bad_objective () =
  let m = lp_model () in
  let c =
    Certify.check ~model:m ~obj:13. ~bound:13. ~values:[| 4.; 0. |]
      ~statuses:[||] ()
  in
  Alcotest.(check bool) "point fine" true c.Certify.point_ok;
  Alcotest.(check bool) "objective mismatch flagged" false c.Certify.obj_ok;
  Alcotest.(check bool)
    "relative error recorded" true
    (c.Certify.obj_error > 0.01)

(* End-to-end: a MILP solved under a drop-forcing budget must come back
   Feasible (never Optimal) through the solver facade, with a passing
   certificate for the surviving incumbent. *)
let test_solver_downgrade_on_drop () =
  let m = drop_model () in
  (* The facade does not expose sx_iters (it is a test hook), so drive
     branch-and-bound directly and certify its claim both ways. *)
  let bb =
    Branch_bound.solve
      ~options:
        {
          Branch_bound.default with
          Branch_bound.sx_iters = Some 0;
          warm_start = Some [| 1.; 1. |];
        }
      m
  in
  let c =
    Certify.check ~model:m ~obj:bb.Branch_bound.obj ~bound:bb.Branch_bound.bound
      ~values:bb.Branch_bound.values ~statuses:[||] ()
  in
  Alcotest.(check bool) "degraded claim certifies" true c.Certify.ok;
  (* the pre-fix claim — obj 2 "optimal" with bound 2 — fails the audit
     once the true optimum is known to be 7 *)
  let pre_fix =
    Certify.check ~optimal:true ~model:m ~obj:2. ~bound:7.
      ~values:bb.Branch_bound.values ~statuses:[||] ()
  in
  Alcotest.(check bool)
    "pre-fix optimality claim rejected" false pre_fix.Certify.ok

let suite =
  [
    ("iter-limit drop keeps bound sound", `Quick, test_iter_limit_drop);
    ("iter-limit drop without incumbent", `Quick, test_iter_limit_no_incumbent);
    ("bound soundness under LP budgets", `Quick, test_bound_sound_under_limits);
    ("certificate passes on a solved LP", `Quick, test_certificate_pass_lp);
    ("every answer with a point is certified", `Quick, test_certificate_always_issued);
    ("corrupted point is flagged", `Quick, test_certificate_bad_point);
    ("understated bound is flagged", `Quick, test_certificate_bad_bound);
    ("open gap contradicts optimality", `Quick, test_certificate_open_gap);
    ("fractional integer is flagged", `Quick, test_certificate_integrality);
    ("objective mismatch is flagged", `Quick, test_certificate_bad_objective);
    ("dropped-subtree claim audits cleanly", `Quick, test_solver_downgrade_on_drop);
  ]
