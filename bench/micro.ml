(* Bechamel micro-benchmarks of the solver substrate: simplex, branch &
   bound, the bi-level encoding, and a full fixed-demand analysis. *)

open Bechamel
open Toolkit

let lp_instance () =
  let m = Milp.Model.create ~name:"bench_lp" () in
  let rng = Random.State.make [| 99 |] in
  let xs = Array.init 40 (fun i -> Milp.Model.continuous ~ub:50. m (Printf.sprintf "x%d" i)) in
  for _ = 1 to 60 do
    let terms =
      Array.to_list xs
      |> List.filter_map (fun (v : Milp.Model.var) ->
             if Random.State.float rng 1. < 0.3 then
               Some (Random.State.float rng 4., v.Milp.Model.vid)
             else None)
    in
    if terms <> [] then
      Milp.Model.add_cons m (Milp.Linexpr.of_terms terms) Milp.Model.Le
        (5. +. Random.State.float rng 40.)
  done;
  Milp.Model.set_objective m Milp.Model.Maximize
    (Milp.Linexpr.sum
       (Array.to_list
          (Array.map (fun (v : Milp.Model.var) -> Milp.Linexpr.var v.Milp.Model.vid) xs)));
  m

let milp_instance () =
  let m = Milp.Model.create ~name:"bench_milp" () in
  let rng = Random.State.make [| 7 |] in
  let xs = Array.init 16 (fun i -> Milp.Model.binary m (Printf.sprintf "b%d" i)) in
  let weights = Array.map (fun _ -> 1. +. Random.State.float rng 9.) xs in
  let values = Array.map (fun _ -> 1. +. Random.State.float rng 9.) xs in
  Milp.Model.add_cons m
    (Milp.Linexpr.of_terms
       (Array.to_list
          (Array.mapi (fun i (v : Milp.Model.var) -> (weights.(i), v.Milp.Model.vid)) xs)))
    Milp.Model.Le 30.;
  Milp.Model.set_objective m Milp.Model.Maximize
    (Milp.Linexpr.of_terms
       (Array.to_list
          (Array.mapi (fun i (v : Milp.Model.var) -> (values.(i), v.Milp.Model.vid)) xs)));
  m

let fig1_setup () =
  let topo = Wan.Generators.fig1 () in
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:0 topo [ (1, 3); (2, 3) ] in
  let d = Traffic.Demand.of_list [ ((1, 3), 12.); ((2, 3), 10.) ] in
  (topo, paths, d)

(* Kernels of the revised engine, on the 40x60 LP's standard form: LU
   factorization of a mixed structural/slack basis, and FTRAN/BTRAN
   through the factors alone and through an eta file. The basis
   alternates structural and slack columns so the LU is non-trivial
   (the all-slack basis would factorize to the identity). *)
let basis_setup () =
  let sp = Milp.Sparse.of_model (lp_instance ()) in
  let m = sp.Milp.Sparse.m and nv = sp.Milp.Sparse.nv in
  let bcols =
    Array.init m (fun r -> if r mod 2 = 0 && r / 2 < nv then r / 2 else nv + r)
  in
  let rhs = Array.init m (fun r -> Float.of_int ((r mod 7) - 3)) in
  (sp, bcols, rhs)

(* A 150-row basis shaped like the ones branch-and-bound factorizes:
   90 slacks and 60 structural columns of about 22 entries each, so
   about 9 per basis column. The structurals are triangular on their
   own rows but for a dense 4-row nucleus, so the singleton pass takes
   all but the last few steps. *)
let bb_basis_setup () =
  let m = 150 and ns = 60 in
  let rng = Random.State.make [| 150 |] in
  let value () =
    let v = 0.5 +. Random.State.float rng 1.5 in
    if Random.State.bool rng then v else -.v
  in
  let coef = Array.make_matrix m ns 0. in
  for j = 0 to ns - 1 do
    coef.(j).(j) <- value ();
    for _ = 1 to 19 do
      coef.(ns + Random.State.int rng (m - ns)).(j) <- value ()
    done;
    if j + 1 < ns then
      for _ = 1 to 2 do
        coef.(j + 1 + Random.State.int rng (ns - j - 1)).(j) <- value ()
      done
  done;
  for i = ns - 4 to ns - 1 do
    for j = ns - 4 to ns - 1 do
      coef.(i).(j) <- value ()
    done
  done;
  let mdl = Milp.Model.create ~name:"bench_bb_basis" () in
  let xs = Array.init ns (fun j -> Milp.Model.continuous mdl (Printf.sprintf "x%d" j)) in
  Array.iter
    (fun row ->
      let terms = ref [] in
      Array.iteri
        (fun j v -> if v <> 0. then terms := (v, xs.(j).Milp.Model.vid) :: !terms)
        row;
      Milp.Model.add_cons mdl (Milp.Linexpr.of_terms !terms) Milp.Model.Le 1.)
    coef;
  let sp = Milp.Sparse.of_model mdl in
  (* structurals, then the slacks of the other rows, in shuffled positions *)
  let bcols = Array.init m (fun k -> if k < ns then k else ns + k) in
  for i = m - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = bcols.(i) in
    bcols.(i) <- bcols.(j);
    bcols.(j) <- t
  done;
  (sp, bcols)

(* The same basis after [k] exchanges, each appending an eta and none
   refactorizing: the eta file branch-and-bound's FTRAN/BTRAN run
   through on an inherited basis. The entering columns are the first
   [k] non-basic ones, each at the position of its largest pivot. *)
let basis_with_etas sp bcols k =
  let basis = Milp.Basis.create sp bcols in
  let m = sp.Milp.Sparse.m in
  let entering =
    List.filter (fun j -> not (Array.mem j bcols)) (List.init sp.Milp.Sparse.n Fun.id)
  in
  List.iteri
    (fun i j ->
      if i < k then begin
        let col = Array.make m 0. in
        Milp.Sparse.axpy_col sp j 1. col;
        let w = Milp.Basis.ftran basis col in
        let r = ref 0 in
        Array.iteri (fun p x -> if Float.abs x > Float.abs w.(!r) then r := p) w;
        if Milp.Basis.replace basis ~r:!r ~col:j ~w then
          failwith "micro: an eta exchange refactorized"
      end)
    entering;
  basis

let tests () =
  let lp = lp_instance () in
  let milp = milp_instance () in
  let topo, paths, d = fig1_setup () in
  let sp = { Raha.Bilevel.default_spec with Raha.Bilevel.max_failures = Some 1 } in
  let grid = Wan.Generators.grid 4 4 in
  let bsp, bcols, rhs = basis_setup () in
  let basis = Milp.Basis.create bsp bcols in
  let etas = basis_with_etas bsp bcols 32 in
  let bbsp, bbcols = bb_basis_setup () in
  Test.make_grouped ~name:"raha" ~fmt:"%s %s"
    [
      Test.make ~name:"simplex: 40x60 LP (revised)"
        (Staged.stage (fun () -> ignore (Milp.Simplex.solve lp)));
      Test.make ~name:"simplex: 40x60 LP (dense)"
        (Staged.stage (fun () ->
             ignore (Milp.Simplex.solve ~engine:Milp.Simplex.Dense lp)));
      Test.make ~name:"basis: factorize 60-row LU"
        (Staged.stage (fun () -> ignore (Milp.Basis.create bsp bcols)));
      Test.make ~name:"basis: factorize 150-row B&B basis"
        (Staged.stage (fun () -> ignore (Milp.Basis.create bbsp bbcols)));
      Test.make ~name:"basis: ftran"
        (Staged.stage (fun () -> ignore (Milp.Basis.ftran basis rhs)));
      Test.make ~name:"basis: btran"
        (Staged.stage (fun () -> ignore (Milp.Basis.btran basis rhs)));
      Test.make ~name:"basis: ftran, 32 etas"
        (Staged.stage (fun () -> ignore (Milp.Basis.ftran etas rhs)));
      Test.make ~name:"basis: btran, 32 etas"
        (Staged.stage (fun () -> ignore (Milp.Basis.btran etas rhs)));
      Test.make ~name:"b&b: 16-item knapsack"
        (Staged.stage (fun () -> ignore (Milp.Solver.solve milp)));
      Test.make ~name:"bilevel build (fig1)"
        (Staged.stage (fun () ->
             ignore (Raha.Bilevel.build sp topo paths (Traffic.Envelope.fixed d))));
      Test.make ~name:"full analysis (fig1, fixed demand)"
        (Staged.stage (fun () ->
             ignore (Raha.Analysis.analyze topo paths (Traffic.Envelope.fixed d))));
      Test.make ~name:"yen 4-shortest (grid 4x4)"
        (Staged.stage (fun () -> ignore (Netpath.Shortest.yen grid ~src:0 ~dst:15 4)));
    ]

let run () =
  Format.printf "@.=== micro: solver substrate timings (Bechamel) ===@.";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (tests ()) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ t ] ->
        if t > 1e6 then Format.printf "%-44s %10.3f ms/run@." name (t /. 1e6)
        else Format.printf "%-44s %10.1f ns/run@." name t
      | _ -> Format.printf "%-44s (no estimate)@." name)
    (List.sort compare rows)
