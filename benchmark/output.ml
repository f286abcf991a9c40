(* The benchmark's result record and the way it is printed: a table for
   people, then a final line of JSON holding exactly correct, attempted,
   failed and metrics. *)

module Json = Service.Json

type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(* A metric as BENCHMARK.json declares it; per-layer metrics have no
   bound. *)
type spec = { s_name : string; s_unit : string; lower_better : bool; bound : float option }

(* BENCHMARK.json, at the root of the checkout, is the one list of
   metrics: (end-to-end, per-layer). *)
let specs =
  lazy
    (let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
     let j = match Json.of_string text with Ok j -> j | Error m -> failwith ("BENCHMARK.json: " ^ m) in
     let section key =
       List.map
         (fun m ->
           let s k = Option.value (Json.to_str (Json.member k m)) ~default:"" in
           {
             s_name = s "name";
             s_unit = s "unit";
             lower_better = s "better" <> "higher";
             bound = Json.to_float (Json.member "bound" m);
           })
         (Option.value (Json.to_list (Json.member key j)) ~default:[])
     in
     (section "end_to_end", section "per_layer"))

type result = {
  attempted : int;
  failures : string list;  (** one line per failed operation or check *)
  end_to_end : (string * float) list;
  per_layer : (string * float) list;  (** only from a traced run *)
  details : metric list;  (** workload-specific breakdown, table only *)
  counters : string;  (** deterministic record: no wall clock *)
}

(* Every declared metric, in declaration order; one a workload does not
   reach reads 0. *)
let fill specs values =
  List.iter
    (fun (k, _) ->
      if not (List.exists (fun s -> s.s_name = k) specs) then invalid_arg ("unknown metric " ^ k))
    values;
  List.map
    (fun s ->
      let v = Option.value (List.assoc_opt s.s_name values) ~default:0. in
      { name = s.s_name; unit = s.s_unit; value = (if Float.is_finite v then v else 0.) })
    specs

let print ~trace r =
  let e2e_specs, layer_specs = Lazy.force specs in
  let e2e = fill e2e_specs r.end_to_end in
  let row m = Printf.printf "  %-24s %16.6g %s\n" m.name m.value m.unit in
  print_endline "end-to-end:";
  List.iter row e2e;
  if r.details <> [] then begin
    print_endline "detail:";
    List.iter row r.details
  end;
  let reported =
    if trace then begin
      let layers = fill layer_specs r.per_layer in
      print_endline "per-layer:";
      List.iter row layers;
      layers
    end
    else e2e
  in
  List.iter (fun f -> prerr_endline ("FAILED: " ^ f)) r.failures;
  Printf.printf "counters: %s\n" r.counters;
  let failed = List.length r.failures in
  let metrics =
    String.concat ", "
      (List.map
         (fun m -> Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit)
         reported)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) (max 1 r.attempted) failed metrics

(* High-water resident set of a process, from /proc. *)
let peak_rss_mb pid =
  let path =
    match pid with Some p -> Printf.sprintf "/proc/%d/status" p | None -> "/proc/self/status"
  in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
        | None -> nan
      in
      scan ())
