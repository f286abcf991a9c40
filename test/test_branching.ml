(* Tests for reliability branching, the primal heuristics and the
   incumbent gate.

   The gate admits a heuristic or warm-start incumbent only when the
   certifier's point check (Certify.check_point) passes at
   [Certify.gate_tolerances ~int_tol]: no component looser than the
   tolerances the final certificate runs at. An admitted incumbent can
   prune the tree, so one that later failed certification would cost
   the answer (Solver downgrades it to Unknown). The tests pin that
   implication at the predicate level, through branch-and-bound's
   warm-start gate, and over the heuristic incumbents of a 64-MILP
   corpus. *)

let check_float ?(eps = 1e-6) what expected got =
  Alcotest.(check (float eps)) what expected got

(* Certification tolerances exactly as Solver.certify_solution derives
   them from the default options at integrality tolerance [int_tol]. *)
let solver_tols int_tol =
  let d = Milp.Solver.default_options in
  Milp.Certify.solver_tolerances ~int_tol ~abs_gap:d.Milp.Solver.abs_gap
    ~rel_gap:d.Milp.Solver.rel_gap

let int_tols = [ 1e-6; 1e-5; 1e-4 ]

(* max x over integer x in [0, 2] with the row x <= 1 *)
let seam_model () =
  let mdl = Milp.Model.create () in
  let x = Milp.Model.integer ~ub:2. mdl "x" in
  let e = Milp.Linexpr.var x.Milp.Model.vid in
  Milp.Model.add_cons mdl e Milp.Model.Le 1.;
  Milp.Model.set_objective mdl Milp.Model.Maximize e;
  mdl

(* Gate implies certification, at the predicate level: over points that
   violate the row x <= 1, the bound x <= 2 or integrality by a grid of
   offsets, every point the gate admits passes certification's point
   check under the solver's tolerances at the same [int_tol]. *)
let test_gate_implies_certification () =
  let mdl = seam_model () in
  let offsets = [ 0.; 1e-7; 5e-7; 1e-6; 2e-6; 5e-6; 1e-5; 2e-5; 5e-5; 1e-4; 2e-4 ] in
  List.iter
    (fun int_tol ->
      let gate = Milp.Certify.gate_tolerances ~int_tol in
      let admitted = ref 0 in
      List.iter
        (fun d ->
          List.iter
            (fun x ->
              let values = [| x |] in
              let p = Milp.Certify.check_point ~tols:gate mdl values in
              if p.Milp.Certify.failure = None then begin
                incr admitted;
                let cert =
                  Milp.Certify.check ~tols:(solver_tols int_tol) ~model:mdl ~obj:x ~bound:x
                    ~values ~statuses:[||] ()
                in
                if not cert.Milp.Certify.point_ok then
                  Alcotest.failf "int_tol %g: gate admits x = %.9g, certification rejects it: %s"
                    int_tol x (String.concat "; " cert.Milp.Certify.failures)
              end)
            [ 1. +. d; 2. +. d; 0.5 +. d ])
        offsets;
      if !admitted = 0 then Alcotest.failf "int_tol %g: the gate admitted nothing" int_tol)
    int_tols

(* The same implication through branch-and-bound's gate: a warm start
   just past the row x <= 1 (x = 1 + int_tol / 2, within int_tol but
   not within certification's normalized feas_tol at int_tol = 1e-4)
   must never become the certified answer's point. *)
let test_warm_start_gate () =
  List.iter
    (fun int_tol ->
      let options =
        {
          Milp.Solver.default_options with
          int_tol;
          warm_start = Some [| 1. +. (int_tol /. 2.) |];
        }
      in
      let sol = Milp.Solver.solve ~presolve:false ~options (seam_model ()) in
      (match sol.Milp.Solver.certificate with
      | Some c when c.Milp.Certify.point_ok -> ()
      | Some c ->
        Alcotest.failf "int_tol %g: the answer's point fails certification: %s" int_tol
          (String.concat "; " c.Milp.Certify.failures)
      | None -> Alcotest.failf "int_tol %g: no certificate" int_tol);
      check_float ~eps:int_tol (Printf.sprintf "int_tol %g: objective" int_tol) 1.
        sol.Milp.Solver.obj)
    int_tols

(* Corpus property: every heuristic-produced incumbent (dive, pump,
   RINS — surfaced through the on_incumbent hook, which fires only on
   the heuristic acceptance path) passes Certify.check under the
   solver's own tolerances. This is the post-fix guarantee: no admitted
   incumbent can later be certify-rejected. *)
let prop_heuristic_incumbents_certified =
  QCheck2.Test.make ~name:"heuristic incumbents pass Certify.check" ~count:64
    QCheck2.Gen.(int_range 0 63)
    (fun case ->
      let mdl = Test_revised.random_milp case in
      let int_tol = 1e-5 in
      let produced = ref [] in
      let options =
        {
          Milp.Branch_bound.default with
          int_tol;
          rins_freq = 4;
          (* root cut rounds solve most corpus cases outright; disable
             them so the search actually branches and the heuristics run *)
          cuts = Milp.Cuts.disabled;
          on_incumbent = Some (fun v -> produced := Array.copy v :: !produced);
        }
      in
      let r = Milp.Branch_bound.solve ~options mdl in
      List.iter
        (fun v ->
          (* re-checked by the gate... *)
          (match
             (Milp.Certify.check_point ~tols:(Milp.Certify.gate_tolerances ~int_tol) mdl v)
               .Milp.Certify.failure
           with
          | None -> ()
          | Some reason ->
            QCheck2.Test.fail_reportf
              "case %d: admitted heuristic incumbent fails the gate: %s"
              case reason);
          (* ...and certified exactly as the solver facade would *)
          let obj = Milp.Model.objective_value mdl v in
          let cert =
            Milp.Certify.check ~tols:(solver_tols int_tol) ~model:mdl ~obj
              ~bound:r.Milp.Branch_bound.bound ~values:v ~statuses:[||] ()
          in
          if not cert.Milp.Certify.ok then
            QCheck2.Test.fail_reportf
              "case %d: heuristic incumbent failed certification: %s" case
              (String.concat "; " cert.Milp.Certify.failures))
        !produced;
      true)

(* The hook must actually fire on this corpus, or the property above is
   vacuous; the heuristic/pseudocost counters must engage (and stay
   silent in Fractional mode, which restores the legacy search). *)
let test_machinery_engages () =
  let sb0 = Milp.Lp_stats.read Milp.Lp_stats.sb_probes () in
  let pcu0 = Milp.Lp_stats.read Milp.Lp_stats.pseudocost_updates () in
  let hs0 = Milp.Lp_stats.read Milp.Lp_stats.heuristic_solutions () in
  let fired = ref 0 in
  for case = 0 to 15 do
    let mdl = Test_revised.random_milp case in
    let options =
      {
        Milp.Branch_bound.default with
        cuts = Milp.Cuts.disabled;
        on_incumbent = Some (fun _ -> incr fired);
      }
    in
    ignore (Milp.Branch_bound.solve ~options mdl)
  done;
  Alcotest.(check bool) "on_incumbent fired" true (!fired > 0);
  Alcotest.(check bool) "strong-branching probes ran" true
    (Milp.Lp_stats.read Milp.Lp_stats.sb_probes () > sb0);
  Alcotest.(check bool) "pseudocost observations recorded" true
    (Milp.Lp_stats.read Milp.Lp_stats.pseudocost_updates () > pcu0);
  Alcotest.(check bool) "heuristic incumbents accepted" true
    (Milp.Lp_stats.read Milp.Lp_stats.heuristic_solutions () > hs0);
  (* Fractional mode leaves the pseudocost machinery untouched *)
  let sb1 = Milp.Lp_stats.read Milp.Lp_stats.sb_probes () in
  let pcu1 = Milp.Lp_stats.read Milp.Lp_stats.pseudocost_updates () in
  for case = 0 to 15 do
    let mdl = Test_revised.random_milp case in
    let options =
      {
        Milp.Branch_bound.default with
        cuts = Milp.Cuts.disabled;
        branching = Milp.Branch_bound.Fractional;
      }
    in
    ignore (Milp.Branch_bound.solve ~options mdl)
  done;
  Alcotest.(check int) "no probes under fractional" sb1
    (Milp.Lp_stats.read Milp.Lp_stats.sb_probes ());
  Alcotest.(check int) "no pseudocost updates under fractional" pcu1
    (Milp.Lp_stats.read Milp.Lp_stats.pseudocost_updates ())

(* Full-solver differential: reliability and fractional branching visit
   different trees but must agree on status and objective across the
   corpus, with certified answers on both sides. *)
let test_branching_differential () =
  for case = 0 to 31 do
    let mdl = Test_revised.random_milp case in
    let solve branching =
      let sol =
        Milp.Solver.solve
          ~options:{ Milp.Solver.default_options with branching }
          mdl
      in
      (match (Milp.Solver.has_point sol, sol.Milp.Solver.certificate) with
      | true, Some c ->
        if not c.Milp.Certify.ok then
          Alcotest.failf "case %d: certificate failed: %s" case
            (String.concat "; " c.Milp.Certify.failures)
      | true, None -> Alcotest.failf "case %d: no certificate issued" case
      | false, _ -> ());
      sol
    in
    let r = solve Milp.Branch_bound.Reliability in
    let f = solve Milp.Branch_bound.Fractional in
    if r.Milp.Solver.status <> f.Milp.Solver.status then
      Alcotest.failf "case %d: reliability %s vs fractional %s" case
        (Format.asprintf "%a" Milp.Solver.pp_status r.Milp.Solver.status)
        (Format.asprintf "%a" Milp.Solver.pp_status f.Milp.Solver.status);
    match r.Milp.Solver.status with
    | Milp.Solver.Optimal ->
      let eps = 1e-6 *. (1. +. Float.abs f.Milp.Solver.obj) in
      check_float ~eps
        (Printf.sprintf "case %d objective" case)
        f.Milp.Solver.obj r.Milp.Solver.obj
    | _ -> ()
  done

let suite =
  [
    ("gate admits only certifiable points", `Quick, test_gate_implies_certification);
    ("warm-start gate at int_tol 1e-6, 1e-5, 1e-4", `Quick, test_warm_start_gate);
    QCheck_alcotest.to_alcotest prop_heuristic_incumbents_certified;
    ("probes, pseudocosts and heuristics engage", `Quick, test_machinery_engages);
    ("corpus: reliability vs fractional", `Quick, test_branching_differential);
  ]
