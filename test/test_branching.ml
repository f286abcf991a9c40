(* Tests for reliability branching, the primal heuristics and the
   unified incumbent-acceptance tolerance (PR 9).

   The tolerance seam this pins down: branch-and-bound used to accept
   plunge-produced incumbents at [10. *. int_tol] while the certifier
   audits points at an [int_tol]-aligned window — so with a configured
   [int_tol] (say 1e-5) a heuristic incumbent could prune the tree and
   then fail certification, downgrading Optimal to Feasible. All
   incumbents now pass through [Model.check_feasible ~tol:int_tol], the
   same tolerance Certify enforces. *)

let check_float ?(eps = 1e-6) what expected got =
  Alcotest.(check (float eps)) what expected got

(* Certification tolerances exactly as Solver.certify_solution derives
   them from the solver's integrality tolerance. *)
let solver_tols int_tol =
  {
    Milp.Certify.default_tolerances with
    Milp.Certify.int_tol =
      Float.max Milp.Certify.default_tolerances.Milp.Certify.int_tol
        (10. *. int_tol);
  }

(* The seam itself, at the predicate level: a candidate point that
   violates a row (and a variable bound) by 5e-5 with int_tol = 1e-5.
   The pre-fix acceptance predicate (tolerance 10 x int_tol = 1e-4)
   admits it; the certifier rejects it (normalized feas_tol 1e-5 on a
   scale-1 row); the unified predicate rejects it like the certifier
   does — so the hole where an admitted incumbent later fails its audit
   is closed. *)
let test_tolerance_seam () =
  let int_tol = 1e-5 in
  let mdl = Milp.Model.create () in
  let x = Milp.Model.integer ~ub:1. mdl "x" in
  let t l =
    Milp.Linexpr.of_terms (List.map (fun (k, v) -> (k, v.Milp.Model.vid)) l)
  in
  Milp.Model.add_cons mdl (t [ (1., x) ]) Milp.Model.Le 1.;
  Milp.Model.set_objective mdl Milp.Model.Maximize (t [ (1., x) ]);
  let cand = [| 1.00005 |] in
  (match Milp.Model.check_feasible ~tol:(10. *. int_tol) mdl cand with
  | None -> ()
  | Some reason ->
    Alcotest.failf
      "pre-fix predicate unexpectedly rejected the seam candidate (%s)" reason);
  let cert =
    Milp.Certify.check ~tols:(solver_tols int_tol) ~model:mdl
      ~obj:(Milp.Model.objective_value mdl cand)
      ~bound:(Milp.Model.objective_value mdl cand)
      ~values:cand ~statuses:[||] ()
  in
  Alcotest.(check bool)
    "certifier rejects the 10x-tolerance candidate" false
    cert.Milp.Certify.point_ok;
  Alcotest.(check bool)
    "unified predicate rejects it too" true
    (Milp.Model.check_feasible ~tol:int_tol mdl cand <> None)

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
          (* re-checked at the unified tolerance... *)
          (match Milp.Model.check_feasible ~tol:int_tol mdl v with
          | None -> ()
          | Some reason ->
            QCheck2.Test.fail_reportf
              "case %d: admitted heuristic incumbent infeasible at int_tol: %s"
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
    ("10x-tolerance incumbent is certify-rejected", `Quick, test_tolerance_seam);
    QCheck_alcotest.to_alcotest prop_heuristic_incumbents_certified;
    ("probes, pseudocosts and heuristics engage", `Quick, test_machinery_engages);
    ("corpus: reliability vs fractional", `Quick, test_branching_differential);
  ]
