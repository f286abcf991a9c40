let to_string t =
  let b = Buffer.create 1024 in
  Buffer.add_string b (Printf.sprintf "wan %s\n" (Topology.name t));
  Buffer.add_string b (Printf.sprintf "nodes %d\n" (Topology.num_nodes t));
  for v = 0 to Topology.num_nodes t - 1 do
    Buffer.add_string b (Printf.sprintf "node %d %s\n" v (Topology.node_name t v))
  done;
  Array.iter
    (fun (lag : Lag.t) ->
      Buffer.add_string b (Printf.sprintf "lag %d %d\n" lag.Lag.src lag.Lag.dst);
      Array.iter
        (fun (l : Lag.link) ->
          Buffer.add_string b
            (Printf.sprintf "link %.17g %.17g\n" l.Lag.link_capacity l.Lag.fail_prob))
        lag.Lag.links)
    (Topology.lags t);
  Buffer.contents b

type parse_state = {
  mutable pname : string;
  mutable n : int;
  mutable names : (int * int * string) list;  (* (line, id, name), reverse order *)
  mutable lags : (int * int * int * Lag.link list) list;
      (* (line, src, dst, links), reverse order; links reversed *)
}

(* Node arrays are allocated from the declared count, so an absurd count
   is rejected up front; the cap is the service's request-line cap,
   far above any real WAN. *)
let max_nodes = 1 lsl 20

let of_string s =
  let st = { pname = "wan"; n = -1; names = []; lags = [] } in
  let err lineno msg = failwith (Printf.sprintf "line %d: %s" lineno msg) in
  let lines = String.split_on_char '\n' s in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else
        match String.split_on_char ' ' line |> List.filter (fun t -> t <> "") with
        | [ "wan"; name ] -> st.pname <- name
        | "wan" :: rest -> st.pname <- String.concat " " rest
        | [ "nodes"; n ] -> (
          match int_of_string_opt n with
          | Some _ when st.n > 0 -> err lineno "duplicate 'nodes' line"
          | Some n when n > max_nodes ->
            err lineno (Printf.sprintf "node count %d above %d" n max_nodes)
          | Some n when n > 0 -> st.n <- n
          | _ -> err lineno "bad node count")
        | "node" :: id :: rest -> (
          match int_of_string_opt id with
          | Some id -> st.names <- (lineno, id, String.concat " " rest) :: st.names
          | None -> err lineno "bad node id")
        | [ "lag"; a; b ] -> (
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b -> st.lags <- (lineno, a, b, []) :: st.lags
          | _ -> err lineno "bad lag endpoints")
        | [ "link"; cap; prob ] -> (
          match (float_of_string_opt cap, float_of_string_opt prob) with
          | Some cap, Some prob -> (
            let link = { Lag.link_capacity = cap; fail_prob = prob } in
            Result.iter_error (fun e -> err lineno ("link " ^ e)) (Lag.check_link link);
            match st.lags with
            | (l, a, b, links) :: rest -> st.lags <- (l, a, b, link :: links) :: rest
            | [] -> err lineno "link before any lag")
          | _ -> err lineno "bad link fields")
        | _ -> err lineno (Printf.sprintf "unrecognized line %S" line))
    lines;
  if st.n <= 0 then failwith "missing 'nodes' line";
  let n = st.n in
  let out_of_range v = v < 0 || v >= n in
  let node_names = Array.init n (Printf.sprintf "n%d") in
  let named = Array.make n false in
  List.iter
    (fun (lineno, v, name) ->
      if out_of_range v then err lineno (Printf.sprintf "node %d outside [0, %d)" v n);
      if named.(v) then err lineno (Printf.sprintf "duplicate node %d" v);
      named.(v) <- true;
      node_names.(v) <- name)
    (List.rev st.names);
  let lags =
    List.rev st.lags
    |> List.mapi (fun id (lineno, a, b, links) ->
           if out_of_range a || out_of_range b then
             err lineno (Printf.sprintf "lag %d-%d: endpoint outside [0, %d)" a b n);
           if a = b then err lineno (Printf.sprintf "lag %d-%d is a self-loop" a b);
           if links = [] then err lineno (Printf.sprintf "lag %d-%d has no links" a b);
           Lag.make ~id ~src:a ~dst:b (List.rev links))
  in
  Topology.create ~node_names ~name:st.pname ~num_nodes:n lags

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))
