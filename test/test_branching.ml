(* Tests for reliability branching, the dive heuristic and the
   incumbent gate.

   The gate admits a heuristic or warm-start incumbent only when the
   certifier's point check (Certify.check_compiled) passes at
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
              let p = Milp.Certify.check_compiled ~tols:gate (Milp.Certify.compile mdl) values in
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

(* Corpus property: every heuristic-produced incumbent (the node dive
   and the hint dive — surfaced through the on_incumbent hook, which
   fires only on the heuristic acceptance path) passes Certify.check
   under the solver's own tolerances. This is the post-fix guarantee:
   no admitted incumbent can later be certify-rejected. *)
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
          (* root cut rounds solve most corpus cases outright; disable
             them so the search actually branches and the dives run *)
          cuts = Milp.Cuts.disabled;
          on_incumbent = Some (fun v -> produced := Array.copy v :: !produced);
        }
      in
      let r = Milp.Branch_bound.solve ~options mdl in
      List.iter
        (fun v ->
          (* re-checked by the gate... *)
          (match
             (Milp.Certify.check_compiled ~tols:(Milp.Certify.gate_tolerances ~int_tol)
                (Milp.Certify.compile mdl) v)
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

(* --- hint refutation ------------------------------------------------------

   Branch-and-bound skips a plunge hint when Simplex.refute proves, warm
   from the last hint plunge's final basis, that the hint's LP cannot
   beat the dive's cutoff. Sound means: a refuted hint's LP, solved cold
   under the same bounds, is infeasible or lands at or below the cutoff
   — exactly the LP whose dive would have returned nothing. *)

let fig1_built encoding =
  let topo = Wan.Generators.fig1 () in
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:0 topo [ (1, 3); (2, 3) ] in
  let env =
    Traffic.Envelope.around ~slack:0.5
      (Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ])
  in
  let spec =
    { Raha.Bilevel.default_spec with Raha.Bilevel.encoding; max_failures = Some 1 }
  in
  (topo, env, Raha.Bilevel.build spec topo paths env)

let africa_built n pairs =
  let topo = Wan.Generators.africa_like ~seed:5 ~n () in
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 topo pairs in
  let env =
    Traffic.Envelope.from_zero ~slack:0.3
      (Traffic.Demand.of_list (List.map (fun p -> (p, 60.)) pairs))
  in
  let spec = { Raha.Bilevel.default_spec with Raha.Bilevel.threshold = Some 1e-5 } in
  (topo, env, Raha.Bilevel.build spec topo paths env)

(* The screening seeds' shape: the empty scenario, every whole-LAG
   failure and every pair of them, each at the envelope's high corner. *)
let bilevel_hints (topo, env, built) =
  let whole e =
    List.init (Wan.Lag.num_links (Wan.Topology.lag topo e)) (fun i -> (e, i))
  in
  let lags = List.init (Wan.Topology.num_lags topo) Fun.id in
  let scenarios =
    [] :: List.map whole lags
    @ List.concat_map
        (fun a -> List.filter_map (fun b -> if b > a then Some (whole a @ whole b) else None) lags)
        lags
  in
  ( built.Raha.Bilevel.model,
    List.map
      (fun links ->
        Raha.Bilevel.hint built
          ~scenario:(Failure.Scenario.of_links topo links)
          ~demand:env.Traffic.Envelope.hi)
      scenarios )

(* Random partial fixings of a differential-generator MILP's integers. *)
let random_hints case =
  let mdl = Test_revised.random_milp case in
  let rng = Random.State.make [| 0x4e1; case |] in
  let lb, ub = Milp.Model.bounds mdl in
  let ints = Milp.Model.int_var_ids mdl in
  ( mdl,
    List.init 6 (fun _ ->
        List.filter_map
          (fun id ->
            if Random.State.bool rng then None
            else
              let lo = int_of_float lb.(id) and hi = int_of_float ub.(id) in
              Some (id, float_of_int (lo + Random.State.int rng (hi - lo + 1))))
          ints) )

(* Walk [hints] as branch-and-bound does: each hint is refuted warm from
   the previous hint's final basis, at cutoffs around its cold LP value
   v — half a refutation margin below v (which only an unsound
   refutation accepts), just above it, and further off. Returns the
   refutations and the tight ones among them (cutoff within three
   margins of v). *)
let refutations (mdl, hints) =
  let prep = Milp.Simplex.prepare mdl in
  let lb0, ub0 = Milp.Model.bounds mdl in
  let sense, _ = Milp.Model.objective mdl in
  let osign = match sense with Milp.Model.Maximize -> 1. | Milp.Model.Minimize -> -1. in
  let warm = ref None and refuted = ref 0 and tight = ref 0 in
  List.iter
    (fun hint ->
      let lb = Array.copy lb0 and ub = Array.copy ub0 in
      if List.for_all (fun (id, v) -> v >= lb0.(id) -. 1e-6 && v <= ub0.(id) +. 1e-6) hint
      then begin
        List.iter (fun (id, v) -> lb.(id) <- v; ub.(id) <- v) hint;
        let cold, basis = Milp.Simplex.solve_prepared ~lb ~ub prep in
        (match !warm with
        | None -> ()
        | Some warm ->
          let cutoffs, sound =
            match cold with
            | Milp.Simplex.Optimal { obj; _ } ->
              let v = osign *. obj in
              let m = 1e-9 *. Float.max 1. (Float.abs v) in
              let off = 1e-3 *. (1. +. Float.abs v) in
              ( [ v -. off; v -. (0.5 *. m); v +. (2. *. m); v +. 1e-6; v +. off; v +. 1. ],
                fun c -> (v <= c, c <= v +. (3. *. m)) )
            | Milp.Simplex.Infeasible -> ([ -1e6; 0.; 1e6 ], fun _ -> (true, false))
            | Milp.Simplex.Unbounded | Milp.Simplex.Iter_limit ->
              ([ -1e6; 0.; 1e6 ], fun _ -> (false, false))
          in
          List.iter
            (fun cutoff ->
              if Milp.Simplex.refute ~warm ~lb ~ub ~cutoff prep then begin
                let ok, near = sound cutoff in
                if not ok then
                  Alcotest.failf "%s: refuted at cutoff %h, but the cold LP says %s"
                    (Milp.Model.name mdl) cutoff
                    (match cold with
                    | Milp.Simplex.Optimal { obj; _ } -> Printf.sprintf "%h" (osign *. obj)
                    | Milp.Simplex.Infeasible -> "infeasible"
                    | Milp.Simplex.Unbounded -> "unbounded"
                    | Milp.Simplex.Iter_limit -> "iteration limit");
                incr refuted;
                if near then incr tight
              end)
            cutoffs);
        match basis with Some _ -> warm := basis | None -> ()
      end)
    hints;
  (!refuted, !tight)

let test_refutation_sound () =
  let family name cases =
    let refuted, tight =
      List.fold_left
        (fun (r, t) c ->
          let r', t' = refutations c in
          (r + r', t + t'))
        (0, 0) cases
    in
    (* the property is vacuous unless refutations happen, some of them
       within a few margins of the LP value *)
    Alcotest.(check bool) (name ^ ": refutations happen") true (refuted > 0);
    Alcotest.(check bool) (name ^ ": tight refutations happen") true (tight > 0)
  in
  family "fig1"
    [
      bilevel_hints (fig1_built (Raha.Bilevel.Strong_duality { levels = 5 }));
      bilevel_hints (fig1_built Raha.Bilevel.Kkt);
    ];
  family "africa-like"
    [
      bilevel_hints (africa_built 6 [ (0, 4); (1, 5) ]);
      bilevel_hints (africa_built 8 [ (0, 5); (1, 6); (2, 7) ]);
    ];
  family "differential MILPs" (List.init 200 random_hints)

(* A reduced cost of the wrong sign but within the dual tolerance, on a
   column with no upper bound, leaves the warm basis "dual feasible"
   while the LP has no bound at all: max x + delta y s.t. x - y <= 1,
   0 <= x <= 1, y >= 0. The optimal basis of delta = 0 warm-starts the
   delta = 5e-7 LP, where c'x still reads 1; the refutation must charge
   the slip over y's (or the row slack's) unbounded range and prove
   nothing, though the same basis refutes the delta = 0 LP at once. *)
let test_refutation_charges_slip () =
  let lp delta =
    let mdl = Milp.Model.create () in
    let x = Milp.Model.continuous ~ub:1. mdl "x" and y = Milp.Model.continuous mdl "y" in
    let t l = Milp.Linexpr.of_terms (List.map (fun (k, v) -> (k, v.Milp.Model.vid)) l) in
    Milp.Model.add_cons mdl (t [ (1., x); (-1., y) ]) Milp.Model.Le 1.;
    Milp.Model.set_objective mdl Milp.Model.Maximize (t [ (1., x); (delta, y) ]);
    mdl
  in
  let flat = lp 0. and tilted = lp 5e-7 in
  let warm =
    match Milp.Simplex.solve_prepared (Milp.Simplex.prepare flat) with
    | Milp.Simplex.Optimal _, Some b -> b
    | _ -> Alcotest.fail "the delta = 0 LP solves to an optimal basis"
  in
  let refute mdl =
    let lb, ub = Milp.Model.bounds mdl in
    Milp.Simplex.refute ~warm ~lb ~ub ~cutoff:2. (Milp.Simplex.prepare mdl)
  in
  Alcotest.(check bool) "delta = 0: refuted below cutoff 2" true (refute flat);
  Alcotest.(check bool) "delta = 5e-7: the cold LP is unbounded" true
    (Milp.Simplex.solve tilted = Milp.Simplex.Unbounded);
  Alcotest.(check bool) "delta = 5e-7: not refuted" false (refute tilted)

(* The four analyze cells: refutation moves no answer bit and no node
   count, and skips the hints whose plunges the dive would discard. fig1
   kkt's hint LPs are never provably below the cutoff warm. The last
   cell is the daemon's (africa-like n = 8, one loaded pair, probability
   threshold 1e-5, strong duality with 4 levels, fixed demand). *)
let test_refutation_pins () =
  let f1 = Wan.Generators.fig1 () in
  let f1_paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:0 f1 [ (1, 3); (2, 3) ] in
  let f1_env =
    Traffic.Envelope.around ~slack:0.5
      (Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ])
  in
  let wan8 = Wan.Generators.africa_like ~seed:5 ~n:8 () in
  let w8_pairs = [ (0, 5); (1, 6); (2, 7) ] in
  let w8_paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 wan8 w8_pairs in
  let sd levels = Raha.Bilevel.Strong_duality { levels } in
  let spec ?threshold ?max_failures encoding =
    { Raha.Bilevel.default_spec with Raha.Bilevel.threshold; max_failures; encoding }
  in
  let daemon_demand = Traffic.Demand.of_list [ ((0, 5), 0.); ((1, 6), 60.); ((2, 7), 0.) ] in
  List.iter
    (fun (name, spec, topo, paths, env, bits, nodes, refutes) ->
      let r0 = Milp.Lp_stats.read Milp.Lp_stats.hint_refutes () in
      let r =
        Raha.Analysis.analyze ~options:{ Raha.Analysis.default_options with spec } topo paths
          env
      in
      Alcotest.(check int64) (name ^ " degradation bits") bits
        (Int64.bits_of_float r.Raha.Analysis.degradation);
      Alcotest.(check int64) (name ^ " bound bits") bits
        (Int64.bits_of_float r.Raha.Analysis.bound);
      Alcotest.(check int) (name ^ " nodes") nodes r.Raha.Analysis.nodes;
      Alcotest.(check int) (name ^ " refuted hints") refutes
        (Milp.Lp_stats.read Milp.Lp_stats.hint_refutes () - r0))
    [
      ("fig1 sd:5", spec ~max_failures:1 (sd 5), f1, f1_paths, f1_env,
       Int64.bits_of_float 0x1.2000000f91baep+3, 44, 5);
      ("fig1 kkt", spec ~max_failures:1 Raha.Bilevel.Kkt, f1, f1_paths, f1_env,
       Int64.bits_of_float 0x1.2000000f91baep+3, 33, 0);
      ("wan8 sd:3", spec ~threshold:1e-5 (sd 3), wan8, w8_paths,
       Traffic.Envelope.from_zero ~slack:0.3
         (Traffic.Demand.of_list (List.map (fun p -> (p, 60.)) w8_pairs)),
       Int64.bits_of_float 0x1.38p+6, 8, 5);
      ("daemon", spec ~threshold:1e-5 (sd 4), wan8, w8_paths,
       Traffic.Envelope.fixed daemon_demand, Int64.bits_of_float 0x1.ep+5, 1, 5);
    ]

let suite =
  [
    ("gate admits only certifiable points", `Quick, test_gate_implies_certification);
    ("warm-start gate at int_tol 1e-6, 1e-5, 1e-4", `Quick, test_warm_start_gate);
    QCheck_alcotest.to_alcotest prop_heuristic_incumbents_certified;
    ("probes, pseudocosts and heuristics engage", `Quick, test_machinery_engages);
    ("corpus: reliability vs fractional", `Quick, test_branching_differential);
    ("refuted hints are sound", `Quick, test_refutation_sound);
    ("refutation charges wrong-signed reduced costs", `Quick, test_refutation_charges_slip);
    ("refutation pins on the analyze cells", `Quick, test_refutation_pins);
  ]
