(* raha — command-line front end.

   Subcommands:
     raha info     print a topology and its probable-failure profile
     raha analyze  find the worst probable (failure, demand) combination
     raha augment  add capacity until no probable failure degrades the WAN
     raha alert    run the two-stage online alert pipeline

   Examples:
     raha analyze -t fig1 --pairs 1-3,2-3 --primary 2 --max-failures 1 --slack 0.5
     raha analyze -t b4 --num-pairs 4 --threshold 1e-4 --timeout 30
     raha augment -t b4 --num-pairs 4 --threshold 1e-4
     raha info -t africa:12:7 *)

open Cmdliner

(* --- topology argument ------------------------------------------------- *)

let parse_topology s =
  let fail msg = Error (`Msg msg) in
  match String.split_on_char ':' s with
  | [ "fig1" ] -> Ok (Wan.Generators.fig1 ())
  | [ "ring"; n ] -> (
    match int_of_string_opt n with
    | Some n when n >= 3 -> Ok (Wan.Generators.ring n)
    | _ -> fail "ring:N needs N >= 3")
  | [ "grid"; rc ] -> (
    match String.split_on_char 'x' rc with
    | [ r; c ] -> (
      match (int_of_string_opt r, int_of_string_opt c) with
      | Some r, Some c -> Ok (Wan.Generators.grid r c)
      | _ -> fail "grid:RxC needs integers")
    | _ -> fail "grid:RxC")
  | "africa" :: rest -> (
    match rest with
    | [] -> Ok (Wan.Generators.africa_like ())
    | [ n ] -> (
      match int_of_string_opt n with
      | Some n -> Ok (Wan.Generators.africa_like ~n ())
      | None -> fail "africa:N")
    | [ n; seed ] -> (
      match (int_of_string_opt n, int_of_string_opt seed) with
      | Some n, Some seed -> Ok (Wan.Generators.africa_like ~n ~seed ())
      | _ -> fail "africa:N:SEED")
    | _ -> fail "africa:N:SEED")
  | [ name ] -> (
    match Wan.Zoo.by_name name with
    | Some t -> Ok t
    | None ->
      if Sys.file_exists name then begin
        let load p =
          if Filename.check_suffix p ".gml" then Wan.Gml.load_file p
          else Wan.Serialize.load p
        in
        match load name with
        | t -> Ok t
        | exception Failure msg -> fail msg
      end
      else
        fail
          (Printf.sprintf
             "unknown topology %S (try %s, fig1, ring:N, grid:RxC, africa:N:SEED or a .wan/.gml file)"
             name
             (String.concat ", " Wan.Zoo.names)))
  | _ -> fail "bad topology spec"

let topology_conv = Arg.conv (parse_topology, fun ppf t -> Wan.Topology.pp ppf t)

let topology_arg =
  Arg.(
    required
    & opt (some topology_conv) None
    & info [ "t"; "topology" ] ~docv:"TOPO"
        ~doc:"Topology: a Zoo name ($(b,b4), $(b,abilene), ...), $(b,fig1), \
              $(b,ring:N), $(b,grid:RxC), $(b,africa:N:SEED), or a GML file.")

(* --- pair selection ---------------------------------------------------- *)

let parse_pairs s =
  try
    Ok
      (String.split_on_char ',' s
      |> List.map (fun p ->
             match String.split_on_char '-' p with
             | [ a; b ] -> (int_of_string a, int_of_string b)
             | _ -> failwith "bad"))
  with _ -> Error (`Msg "pairs: expected SRC-DST,SRC-DST,...")

let pairs_conv =
  Arg.conv
    ( parse_pairs,
      fun ppf l ->
        Format.pp_print_string ppf
          (String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) l)) )

let pairs_arg =
  Arg.(
    value
    & opt (some pairs_conv) None
    & info [ "pairs" ] ~docv:"PAIRS" ~doc:"Demand pairs as $(i,SRC-DST,SRC-DST,...).")

let num_pairs_arg =
  Arg.(
    value & opt int 4
    & info [ "num-pairs" ]
        ~doc:"When $(b,--pairs) is absent, pick this many spread-out pairs.")

let auto_pairs topo n =
  (* deterministic spread: pair node i with the farthest unused node *)
  let nn = Wan.Topology.num_nodes topo in
  let rng = Random.State.make [| 17; nn |] in
  let pairs = ref [] in
  let attempts = ref 0 in
  while List.length !pairs < n && !attempts < 50 * n do
    incr attempts;
    let a = Random.State.int rng nn and b = Random.State.int rng nn in
    if a <> b && not (List.mem (a, b) !pairs) then pairs := (a, b) :: !pairs
  done;
  List.rev !pairs

(* --- shared analysis options ------------------------------------------ *)

let primary_arg = Arg.(value & opt int 2 & info [ "primary" ] ~doc:"Primary paths per pair.")
let backup_arg = Arg.(value & opt int 1 & info [ "backup" ] ~doc:"Backup paths per pair.")

let threshold_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "threshold" ] ~docv:"T" ~doc:"Only consider scenarios with probability >= T.")

let max_failures_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "k"; "max-failures" ] ~doc:"Allow at most K failed links.")

let ce_arg =
  Arg.(value & flag & info [ "ce" ] ~doc:"Connected-enforced: never disconnect a pair.")

let slack_arg =
  Arg.(
    value & opt float 0.
    & info [ "slack" ]
        ~doc:"Demand slack: demands range over [0, (1+slack) * base]. 0 fixes demands.")

let demand_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "demand-file" ] ~docv:"CSV"
        ~doc:"Base demand matrix from a CSV file (src,dst,volume per line);               overrides $(b,--pairs)/$(b,--volume).")

let volume_arg =
  Arg.(
    value & opt (some float) None
    & info [ "volume" ] ~doc:"Base demand volume per pair (default: avg LAG capacity / 2).")

let timeout_arg =
  Arg.(value & opt float 60. & info [ "timeout" ] ~doc:"Solver budget in seconds.")

let domains_arg =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "domains" ]
        ~doc:
          "OCaml domains used for scenario-evaluation sweeps and the MILP core               (parallel branch-and-bound subtree rounds, concurrent cluster-block               waves). Default: all cores; $(b,1) forces the sequential path —               results are bit-identical either way.")

let clusters_arg =
  Arg.(value & opt int 1 & info [ "clusters" ] ~doc:"Clusters for Algorithm 1 (1 = off).")

let encoding_arg =
  let parse s =
    match String.split_on_char ':' s with
    | [ "kkt" ] -> Ok Raha.Bilevel.Kkt
    | [ "sd" ] -> Ok (Raha.Bilevel.Strong_duality { levels = 5 })
    | [ "sd"; n ] -> (
      match int_of_string_opt n with
      | Some levels when levels >= 2 -> Ok (Raha.Bilevel.Strong_duality { levels })
      | _ -> Error (`Msg "sd:LEVELS needs LEVELS >= 2"))
    | _ -> Error (`Msg "encoding: kkt or sd[:LEVELS]")
  in
  let print ppf = function
    | Raha.Bilevel.Kkt -> Format.pp_print_string ppf "kkt"
    | Raha.Bilevel.Strong_duality { levels } -> Format.fprintf ppf "sd:%d" levels
  in
  Arg.(
    value
    & opt (conv (parse, print)) (Raha.Bilevel.Strong_duality { levels = 4 })
    & info [ "encoding" ] ~doc:"Inner-problem encoding: $(b,sd[:LEVELS]) or $(b,kkt).")

let objective_arg =
  let parse = function
    | "total" -> Ok Te.Formulation.Total_flow
    | "mlu" -> Ok (Te.Formulation.Mlu { u_max = 10. })
    | "maxmin" -> Ok (Te.Formulation.Max_min { bins = 4; ratio = 1. })
    | _ -> Error (`Msg "objective: total, mlu or maxmin")
  in
  let print ppf = function
    | Te.Formulation.Total_flow -> Format.pp_print_string ppf "total"
    | Te.Formulation.Mlu _ -> Format.pp_print_string ppf "mlu"
    | Te.Formulation.Max_min _ -> Format.pp_print_string ppf "maxmin"
  in
  Arg.(
    value
    & opt (conv (parse, print)) Te.Formulation.Total_flow
    & info [ "objective" ] ~doc:"TE objective: $(b,total), $(b,mlu) or $(b,maxmin).")

type setup = {
  topo : Wan.Topology.t;
  paths : Netpath.Path_set.t;
  envelope : Traffic.Envelope.t;
  options : Raha.Analysis.options;
}

let make_setup topo pairs num_pairs primary backup threshold max_failures ce slack
    volume timeout domains encoding objective demand_file =
  let ( let* ) = Result.bind in
  let* base =
    match demand_file with
    | Some path -> (
      match Traffic.Demand_io.load path with
      | d -> Ok d
      | exception Failure msg -> Error (Printf.sprintf "%s: %s" path msg)
      | exception Sys_error msg -> Error msg)
    | None -> (
      let pairs = match pairs with Some p -> p | None -> auto_pairs topo num_pairs in
      let vol =
        match volume with Some v -> v | None -> Wan.Topology.avg_lag_capacity topo /. 2.
      in
      match Traffic.Demand.of_list (List.map (fun p -> (p, vol)) pairs) with
      | d -> Ok d
      | exception Invalid_argument msg -> Error msg)
  in
  let pairs = Traffic.Demand.pairs base in
  let n = Wan.Topology.num_nodes topo in
  let* () =
    match List.find_opt (fun (s, d) -> s >= n || d >= n) pairs with
    | Some (s, d) ->
      Error
        (Printf.sprintf "demand pair %d->%d names node %d, but the topology has %d nodes"
           s d (if s >= n then s else d) n)
    | None -> Ok ()
  in
  let paths = Netpath.Path_set.compute ~n_primary:primary ~n_backup:backup topo pairs in
  let envelope =
    if slack > 0. then Traffic.Envelope.from_zero ~slack base
    else Traffic.Envelope.fixed base
  in
  let spec =
    {
      Raha.Bilevel.default_spec with
      Raha.Bilevel.threshold;
      max_failures;
      connected_enforced = ce;
      encoding;
      objective;
    }
  in
  let options =
    { (Raha.Analysis.with_timeout timeout) with spec; domains = max 1 domains }
  in
  Ok { topo; paths; envelope; options }

let setup_term =
  Term.(
    term_result'
      (const make_setup $ topology_arg $ pairs_arg $ num_pairs_arg $ primary_arg
      $ backup_arg $ threshold_arg $ max_failures_arg $ ce_arg $ slack_arg $ volume_arg
      $ timeout_arg $ domains_arg $ encoding_arg $ objective_arg $ demand_file_arg))

(* --- subcommands ------------------------------------------------------- *)

let info_cmd =
  let run topo =
    Format.printf "%a@.@." Wan.Topology.pp topo;
    Format.printf "probable-failure profile (Figure 2 style):@.";
    Format.printf "  %-12s %s@." "threshold" "max simultaneous link failures";
    List.iter
      (fun t ->
        let n, _ = Failure.Probability.max_simultaneous_failures topo ~threshold:t in
        Format.printf "  %-12g %d@." t n)
      [ 0.1; 1e-2; 1e-3; 1e-4; 1e-5; 1e-6; 1e-7 ]
  in
  Cmd.v (Cmd.info "info" ~doc:"Print a topology and its probable-failure profile.")
    Term.(const run $ topology_arg)

let analyze_cmd =
  let run setup clusters =
    let r =
      if clusters <= 1 then
        Raha.Analysis.analyze ~options:setup.options setup.topo setup.paths setup.envelope
      else begin
        let c =
          Raha.Cluster.analyze ~options:setup.options ~clusters setup.topo setup.paths
            setup.envelope
        in
        Format.printf "clustered: %d block solves, %.1fs total@." c.Raha.Cluster.block_solves
          c.Raha.Cluster.total_elapsed;
        c.Raha.Cluster.report
      end
    in
    Format.printf "%a@." Raha.Analysis.pp_report r;
    Format.printf "@.%a@." (Raha.Analysis.pp_explanation setup.topo) r;
    Format.printf "@.worst demand:@.%a@." Traffic.Demand.pp r.Raha.Analysis.worst_demand
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Find the probable failure scenario and demand maximizing degradation.")
    Term.(const run $ setup_term $ clusters_arg)

let augment_cmd =
  let tolerance_arg =
    Arg.(value & opt float 0.01 & info [ "tolerance" ] ~doc:"Acceptable normalized degradation.")
  in
  let no_fail_arg =
    Arg.(
      value & flag
      & info [ "no-fail" ] ~doc:"Assume added capacity cannot fail (prior-work setting).")
  in
  let run setup tolerance no_fail =
    let r =
      Raha.Augment.augment_lags ~options:setup.options
        ~new_capacity_can_fail:(not no_fail) ~tolerance setup.topo setup.paths
        setup.envelope
    in
    List.iteri
      (fun i (s : Raha.Augment.step) ->
        Format.printf "step %d: degradation %.3g -> add %s@." (i + 1)
          s.Raha.Augment.report.Raha.Analysis.degradation
          (String.concat ", "
             (List.map
                (fun (e, n) -> Printf.sprintf "%d links to lag%d" n e)
                s.Raha.Augment.lag_links_added)))
      r.Raha.Augment.steps;
    Format.printf "converged=%b links_added=%d residual=%.3g@." r.Raha.Augment.converged
      r.Raha.Augment.total_links_added r.Raha.Augment.final.Raha.Analysis.degradation
  in
  Cmd.v
    (Cmd.info "augment" ~doc:"Add capacity until no probable failure degrades the WAN.")
    Term.(const run $ setup_term $ tolerance_arg $ no_fail_arg)

let alert_cmd =
  let tolerance_arg =
    Arg.(value & opt float 0.5 & info [ "tolerance" ] ~doc:"Alert above this normalized degradation.")
  in
  let run setup tolerance =
    let v =
      Raha.Alert.run ~options:setup.options ~tolerance setup.topo setup.paths
        ~peak:setup.envelope.Traffic.Envelope.hi setup.envelope
    in
    let stage =
      match v.Raha.Alert.stage with
      | Some Raha.Alert.Fast_fixed_demand -> "fast (fixed peak demand)"
      | Some Raha.Alert.Deep_variable_demand -> "deep (variable demand)"
      | None -> "none"
    in
    Format.printf "alert=%b stage=%s@.fast check:@.%a@." v.Raha.Alert.alert stage
      Raha.Analysis.pp_report v.Raha.Alert.fast;
    match v.Raha.Alert.deep with
    | Some d -> Format.printf "deep check:@.%a@." Raha.Analysis.pp_report d
    | None -> ()
  in
  Cmd.v
    (Cmd.info "alert" ~doc:"Two-stage online alert: fixed peak first, then any demand.")
    Term.(const run $ setup_term $ tolerance_arg)

let socket_arg =
  Arg.(
    value
    & opt string Service.Server.default_socket
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (shared default with the other side).")

let serve_cmd =
  let drift_tol_arg =
    Arg.(
      value & opt float 0.05
      & info [ "drift-tol" ] ~docv:"D"
          ~doc:
            "Serve the cached worst-case answer while every per-link failure               probability estimate has drifted by at most D since it was               computed; above that, re-solve warm.")
  in
  let alert_tol_arg =
    Arg.(
      value & opt float 0.1
      & info [ "alert-tol" ] ~docv:"T"
          ~doc:
            "Push-alert threshold in normalized degradation units; a               subscriber may override it per connection.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:
            "Durable event log: replay PATH through the ingest path on               startup (recovering estimators, topology and demand envelope),               then append every accepted event to it.")
  in
  let run setup socket drift_tol alert_tolerance journal =
    let core =
      Service.Core.create
        {
          Service.Core.paths = setup.paths;
          envelope = setup.envelope;
          options = setup.options;
          drift_tol;
          alert_tolerance;
        }
        setup.topo
    in
    (match journal with
    | None -> ()
    | Some path ->
      let j, recovery = Service.Journal.open_ path in
      (match recovery.Service.Journal.damage with
      | Some reason ->
        Printf.eprintf "journal %s: damaged tail discarded (%s)\n%!" path reason
      | None -> ());
      let accepted, rejected =
        Service.Core.replay core recovery.Service.Journal.events
      in
      Printf.eprintf "journal %s: replayed %d event(s)%s\n%!" path accepted
        (if rejected > 0 then Printf.sprintf ", rejected %d" rejected else "");
      Service.Core.attach_journal core j);
    Service.Server.run ~socket core
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the always-on degradation service: ingest link telemetry events,               answer certified worst-case and \"now\" queries over a Unix socket,               and push alert/clear notifications to subscribers.")
    Term.(
      const run $ setup_term $ socket_arg $ drift_tol_arg $ alert_tol_arg
      $ journal_arg)

let query_cmd =
  let line_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUEST" ~doc:"One protocol request as a JSON line.")
  in
  let retries_arg =
    Arg.(
      value & opt int 100
      & info [ "retries" ]
          ~doc:"Connect attempts (50ms apart) while the server starts up.")
  in
  let run socket retries line =
    match Service.Server.request ~socket ~retries line with
    | Ok resp ->
      print_endline resp;
      if
        match Service.Json.of_string resp with
        | Ok j -> Service.Json.to_bool (Service.Json.member "ok" j) = Some true
        | Error _ -> false
      then exit 0
      else exit 1
    | Error msg ->
      prerr_endline msg;
      exit 2
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Send one JSON request line to a running $(b,raha serve) daemon and               print the response line. Exits 0 on an $(b,ok) response, 1 on a               protocol error, 2 on a connection failure.")
    Term.(const run $ socket_arg $ retries_arg $ line_arg)

let () =
  let doc = "analyze probable WAN degradation under failures and traffic shifts" in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "raha" ~version:"1.0.0" ~doc)
          [ info_cmd; analyze_cmd; augment_cmd; alert_cmd; serve_cmd; query_cmd ]))
