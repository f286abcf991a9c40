let to_csv d =
  let b = Buffer.create 256 in
  List.iter
    (fun ((src, dst), v) -> Buffer.add_string b (Printf.sprintf "%d,%d,%.17g\n" src dst v))
    (Demand.entries d);
  Buffer.contents b

let of_csv s =
  let m = ref Demand.empty in
  List.iteri
    (fun i line ->
      let err msg = failwith (Printf.sprintf "line %d: %s" (i + 1) msg) in
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else
        match String.split_on_char ',' line |> List.map String.trim with
        | [ a; b; v ] -> (
          match (int_of_string_opt a, int_of_string_opt b, float_of_string_opt v) with
          | Some src, Some dst, Some vol -> (
            match Demand.add !m (src, dst) vol with
            | Ok m' -> m := m'
            | Error e -> err (Printf.sprintf "%s in %S" e line))
          | _ -> err (Printf.sprintf "bad fields in %S" line))
        | _ -> err "expected src,dst,volume")
    (String.split_on_char '\n' s);
  !m

let save d path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_csv d))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_csv (really_input_string ic len))
