(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation on the scaled-down reference topologies.

   Usage:
     dune exec bench/main.exe                 run everything (default budgets)
     dune exec bench/main.exe -- --list       list experiments
     dune exec bench/main.exe -- --only fig5,tab3
     dune exec bench/main.exe -- --quick      trimmed grids (smoke run)
     dune exec bench/main.exe -- --full       larger topologies and budgets
     dune exec bench/main.exe -- --budget 30  per-solve budget (seconds)
     dune exec bench/main.exe -- --domains 4  domains for grid cells and cluster waves
     dune exec bench/main.exe -- --skip-micro skip the Bechamel timings

   These seven options are the whole interface. Solver layers have no
   flags: each on/off experiment (solver, ablation) runs
   its arms as overrides of the one Raha.Analysis.options record
   (README, "Solver options"). *)

let () =
  let only = ref [] and list = ref false in
  let budget = ref Common.default_ctx.Common.budget in
  let domains = ref (Domain.recommended_domain_count ()) in
  let quick = ref false and full = ref false and skip_micro = ref false in
  let args =
    [
      ("--list", Arg.Set list, " list experiment ids");
      ("--only", Arg.String (fun s -> only := String.split_on_char ',' s), "IDS comma-separated ids");
      ("--budget", Arg.Set_float budget, "SECONDS per-solve budget (default 10)");
      ("--domains", Arg.Set_int domains,
       "N OCaml domains for the grid experiments' cells and the blocks of a cluster wave (default: all cores; 1 = sequential; results bit-identical either way)");
      ("--quick", Arg.Set quick, " trimmed grids");
      ("--full", Arg.Set full, " larger topologies and budgets");
      ("--skip-micro", Arg.Set skip_micro, " skip the Bechamel micro-benchmarks");
    ]
  in
  Arg.parse (Arg.align args) (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "bench/main.exe [--list] [--only IDS] [--budget S] [--domains N] [--quick|--full] [--skip-micro]";
  if !list then begin
    List.iter
      (fun (id, desc, _) -> Format.printf "%-8s %s@." id desc)
      Experiments.all;
    Format.printf "%-8s %s@." "micro" "Bechamel micro-benchmarks of the solver substrate"
  end
  else begin
    let ctx =
      {
        Common.budget = (if !full then 4. *. !budget else !budget);
        full = !full;
        quick = !quick;
        domains = max 1 !domains;
      }
    in
    (* an unknown id in --only would otherwise be silently skipped *)
    let known = List.map (fun (id, _, _) -> id) Experiments.all @ [ "micro" ] in
    (match List.filter (fun id -> not (List.mem id known)) !only with
    | [] -> ()
    | unknown ->
      Format.eprintf "unknown experiment id%s: %s@.available ids: %s@."
        (if List.length unknown > 1 then "s" else "")
        (String.concat ", " unknown)
        (String.concat ", " known);
      exit 2);
    let selected = function
      | [] -> fun _ -> true
      | ids -> fun id -> List.mem id ids
    in
    let want = selected !only in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (id, _, fn) ->
        if want id then begin
          let t = Unix.gettimeofday () in
          fn ctx;
          Format.printf "[%s took %.1fs]@." id (Unix.gettimeofday () -. t)
        end)
      Experiments.all;
    if (not !skip_micro) && want "micro" then Micro.run ();
    Format.printf "@.total bench time: %.1fs@." (Unix.gettimeofday () -. t0)
  end
