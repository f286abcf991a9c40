(* Raha's two-stage online alerting (§1, §3).

   Stage 1 checks the observed peak demand under all probable failures
   (fast); stage 2 checks every demand in the envelope (deep). The
   example runs the pipeline at three operator tolerance levels to show
   each outcome: fast alert, deep alert, and all-clear.

   Run with: dune exec examples/alert_pipeline.exe *)

let () =
  let topo = Wan.Generators.africa_like ~seed:11 ~n:9 () in
  Format.printf "topology: %a@.@." Wan.Topology.pp topo;
  let pairs = [ (0, 6); (1, 7); (2, 8) ] in
  let paths = Netpath.Path_set.compute ~n_primary:2 ~n_backup:1 topo pairs in
  (* a month of synthetic history gives the peak and the envelope *)
  let series =
    Traffic.Traffic_gen.generate ~seed:3 ~days:30 ~samples_per_day:4 ~pairs
      ~mean_volume:50. topo ()
  in
  let peak = Traffic.Traffic_gen.maximum series in
  Format.printf "peak demand (over the month):@.%a@." Traffic.Demand.pp peak;
  (* the deep stage searches every demand up to 30% above the peak *)
  let envelope = Traffic.Envelope.from_zero ~slack:0.3 peak in
  let spec =
    {
      Raha.Bilevel.default_spec with
      Raha.Bilevel.threshold = Some 1e-4;
      encoding = Raha.Bilevel.Strong_duality { levels = 3 };
    }
  in
  (* the fast stage gets a quarter of the time limit: 15 s here *)
  let options = { Raha.Analysis.default_options with spec; time_limit = 60. } in
  let stage_name = function
    | Some Raha.Alert.Fast_fixed_demand -> "FAST (fixed peak demand)"
    | Some Raha.Alert.Deep_variable_demand -> "DEEP (variable demand)"
    | None -> "none"
  in
  List.iter
    (fun tolerance ->
      let v =
        Raha.Alert.run ~options ~tolerance topo paths ~peak envelope
      in
      Format.printf
        "tolerance %.2f: alert=%b stage=%s (fast found %.3f normalized%s)@." tolerance
        v.Raha.Alert.alert (stage_name v.Raha.Alert.stage)
        v.Raha.Alert.fast.Raha.Analysis.normalized
        (match v.Raha.Alert.deep with
        | Some d -> Printf.sprintf ", deep found %.3f" d.Raha.Analysis.normalized
        | None -> ""))
    [ 0.05; 0.45; 10. ]
