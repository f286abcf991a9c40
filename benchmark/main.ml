(* The repository benchmark. See README.md.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
     main.exe --check
     main.exe --compare OLD_DIR NEW_DIR *)

let workloads = [ "solve-cells"; "sweep"; "serve-read"; "serve-churn" ]

(* Sockets, journals and logs of a run live under the checkout and go
   when the run ends; deterministic counter records stay, keyed by the
   binaries that produced them. *)
let root = ".bench_run"

let mkdir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let run_dir =
  lazy
    (let dir = Filename.concat root (string_of_int (Unix.getpid ())) in
     let clear () = Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir) in
     mkdir root;
     mkdir dir;
     clear ();
     at_exit (fun () ->
         clear ();
         Sys.rmdir dir);
     dir)

let run_workload ~workload ~seed ~seconds ~trace ~smoke ~trace_out =
  match workload with
  | "solve-cells" -> Cells.run ~seed ~seconds ~trace ~smoke ~trace_out
  | "sweep" -> Sweep.run ~seed ~seconds ~trace ~trace_out
  | "serve-read" -> Serve.run Serve.Read ~seed ~seconds ~trace ~smoke ~trace_out ~dir:(Lazy.force run_dir)
  | "serve-churn" -> Serve.run Serve.Churn ~seed ~seconds ~trace ~smoke ~trace_out ~dir:(Lazy.force run_dir)
  | w -> invalid_arg ("unknown workload " ^ w)

(* The counters record of an earlier run of the same binaries, workload,
   seed and length must match this one. *)
let check_counters ~workload ~seed ~seconds (r : Output.result) =
  let build =
    Digest.to_hex
      (Digest.string (Digest.file Sys.executable_name ^ Digest.file (Serve.cli_exe ())))
  in
  let dir = Filename.concat root "counters" in
  mkdir root;
  mkdir dir;
  let file = Filename.concat dir (Printf.sprintf "%s-%s-%d-%g" build workload seed seconds) in
  if Sys.file_exists file then begin
    let prev = In_channel.with_open_bin file In_channel.input_all in
    if prev <> r.Output.counters then
      { r with Output.failures = r.Output.failures @ [ "counters differ from an earlier run: " ^ prev ] }
    else r
  end
  else begin
    Out_channel.with_open_bin file (fun oc -> output_string oc r.Output.counters);
    r
  end

(* Every workload at smoke size, untraced then traced, with all its
   correctness checks; the two counters records must agree. *)
let check () =
  let ok = ref true in
  List.iter
    (fun workload ->
      let t0 = Unix.gettimeofday () in
      let run trace =
        run_workload ~workload ~seed:1 ~seconds:1. ~trace ~smoke:true ~trace_out:None
      in
      let a = run false in
      let b = run true in
      let problems =
        a.Output.failures @ b.Output.failures
        @ if a.Output.counters <> b.Output.counters then [ "counters differ between runs" ] else []
      in
      Printf.printf "%-12s %-6s %5.1fs  %s\n%!" workload
        (if problems = [] then "ok" else "FAILED")
        (Unix.gettimeofday () -. t0) a.Output.counters;
      List.iter (fun p -> Printf.printf "  %s\n" p) problems;
      if problems <> [] then ok := false)
    workloads;
  exit (if !ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let trace_out = ref None and mode = ref `Run in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 traced run reporting per-layer metrics");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s), "FILE write the spans as JSONL");
      ("--check", Arg.Unit (fun () -> mode := `Check), " every workload at smoke size");
      ( "--compare",
        Arg.Tuple
          (let old_dir = ref "" in
           [ Arg.Set_string old_dir; Arg.String (fun n -> mode := `Compare (!old_dir, n)) ]),
        "OLD NEW compare two directories of saved runs" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "main.exe [options]";
  (* a daemon that dies mid-write must surface as an error, not a signal;
     a stopped or stuck run still reaps its daemon (at_exit) and ends
     within 170 s without a result *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint; Sys.sigalrm ];
  ignore (Unix.alarm 170);
  match !mode with
  | `Check -> check ()
  | `Compare (o, n) -> exit (if Compare.run ~workloads o n then 1 else 0)
  | `Run ->
    if not (List.mem !workload workloads) then begin
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    end;
    let r =
      run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~smoke:false ~trace_out:!trace_out
      |> check_counters ~workload:!workload ~seed:!seed ~seconds:!seconds
    in
    Output.print ~trace:(!trace = 1) r;
    exit (if r.Output.failures = [] then 0 else 1)
