(* --compare OLD NEW: two sets of saved runs, one verdict per (metric,
   workload) pair. A set is a directory of files, each holding the
   standard output of one run and named after its workload
   (serve-read-3.out, ...). Bounds and directions come from
   BENCHMARK.json. *)

module Json = Service.Json

(* (workload, metric) -> values, over every run file of a set *)
let load dir ~workloads =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun file ->
      match List.find_opt (fun w -> String.starts_with ~prefix:w file) workloads with
      | None -> ()
      | Some w -> (
        let lines =
          In_channel.with_open_bin (Filename.concat dir file) In_channel.input_lines
          |> List.filter (fun l -> String.starts_with ~prefix:"{" l)
        in
        match List.rev lines with
        | [] -> ()
        | last :: _ -> (
          match Json.of_string last with
          | Error _ -> ()
          | Ok j -> (
            match Json.member "metrics" j with
            | Json.Obj ms ->
              List.iter
                (fun (name, v) ->
                  match Json.to_float (Json.member "value" v) with
                  | Some x ->
                    let k = (w, name) in
                    Hashtbl.replace tbl k (x :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
                  | None -> ())
                ms
            | _ -> ()))))
    (Sys.readdir dir);
  tbl

(* A spread wider than the bound leaves the pair unresolved unless every
   new run beats every old one; a gain needs the new side to win nine
   tenths of the (old, new) pairs and the medians to differ by more than
   the old quartile distance. *)
let verdict (b : Output.spec) old_v new_v =
  let q1o, mo, q3o = Stats.quartiles old_v and q1n, mn, q3n = Stats.quartiles new_v in
  let sign = if b.Output.lower_better then 1. else -1. in
  let worse = sign *. (mn -. mo) /. Float.abs mo in
  let beats x y = sign *. (x -. y) < 0. in
  let all_better = List.for_all (fun n -> List.for_all (fun o -> beats n o) old_v) new_v in
  let wins =
    List.fold_left
      (fun acc n -> acc + List.length (List.filter (fun o -> beats n o) old_v))
      0 new_v
  in
  let pairs = List.length old_v * List.length new_v in
  let gain =
    worse < 0.
    && float_of_int wins >= 0.9 *. float_of_int pairs
    && Float.abs (mn -. mo) > q3o -. q1o
  in
  let text =
    match b.Output.bound with
    | None -> "-"
    | Some bound ->
      let spread q1 q3 m = (q3 -. q1) /. Float.abs m in
      let wide = spread q1o q3o mo > bound || spread q1n q3n mn > bound in
      if all_better || (gain && not wide) then "improved"
      else if wide then "unresolved"
      else if worse > bound then "regressed"
      else "unchanged"
  in
  ((q1o, mo, q3o), (q1n, mn, q3n), worse, text)

let run ~workloads old_dir new_dir =
  let e2e, layers = Lazy.force Output.specs in
  let old_t = load old_dir ~workloads and new_t = load new_dir ~workloads in
  Printf.printf "%-12s %-24s %-32s %-32s %9s %6s  %s\n" "workload" "metric" "old q1/median/q3"
    "new q1/median/q3" "worse" "bound" "verdict";
  let regressed = ref false in
  List.iter
    (fun w ->
      List.iter
        (fun (b : Output.spec) ->
          let name = b.Output.s_name in
          match (Hashtbl.find_opt old_t (w, name), Hashtbl.find_opt new_t (w, name)) with
          | Some o, Some n ->
            let (a1, a2, a3), (b1, b2, b3), worse, text = verdict b o n in
            if text = "regressed" then regressed := true;
            Printf.printf "%-12s %-24s %10.4g/%10.4g/%10.4g %10.4g/%10.4g/%10.4g %+8.1f%% %6s  %s\n" w
              name a1 a2 a3 b1 b2 b3 (100. *. worse)
              (match b.Output.bound with Some x -> Printf.sprintf "%.0f%%" (100. *. x) | None -> "-")
              text
          | _ -> ())
        (e2e @ layers))
    workloads;
  !regressed
