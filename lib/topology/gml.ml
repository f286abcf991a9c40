type token = Lbracket | Rbracket | Ident of string | Str of string | Num of float

let tokenize s =
  let n = String.length s in
  let tokens = ref [] in
  let i = ref 0 in
  let peek () = if !i < n then Some s.[!i] else None in
  while !i < n do
    match s.[!i] with
    | ' ' | '\t' | '\r' | '\n' -> incr i
    | '#' ->
      (* comment to end of line *)
      while !i < n && s.[!i] <> '\n' do incr i done
    | '[' ->
      tokens := Lbracket :: !tokens;
      incr i
    | ']' ->
      tokens := Rbracket :: !tokens;
      incr i
    | '"' ->
      incr i;
      let b = Buffer.create 16 in
      while !i < n && s.[!i] <> '"' do
        Buffer.add_char b s.[!i];
        incr i
      done;
      if !i >= n then failwith "Gml: unterminated string";
      incr i;
      tokens := Str (Buffer.contents b) :: !tokens
    | c when (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' ->
      let start = !i in
      incr i;
      let is_num_char c =
        (c >= '0' && c <= '9') || c = '.' || c = 'e' || c = 'E' || c = '-' || c = '+'
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do incr i done;
      let lit = String.sub s start (!i - start) in
      (match float_of_string_opt lit with
      | Some f -> tokens := Num f :: !tokens
      | None -> failwith (Printf.sprintf "Gml: bad number %S" lit))
    | c when (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' ->
      let start = !i in
      incr i;
      let is_ident c =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
      in
      while (match peek () with Some c -> is_ident c | None -> false) do incr i done;
      tokens := Ident (String.sub s start (!i - start)) :: !tokens
    | c -> failwith (Printf.sprintf "Gml: unexpected character %C" c)
  done;
  List.rev !tokens

(* A GML value is a scalar or a block of key/value pairs. *)
type value = Scalar_num of float | Scalar_str of string | Block of (string * value) list

let rec parse_block tokens =
  (* parses key/value pairs until Rbracket or end; returns (pairs, rest) *)
  match tokens with
  | [] -> ([], [])
  | Rbracket :: rest -> ([], rest)
  | Ident key :: rest -> (
    match rest with
    | Num f :: rest' ->
      let pairs, rest'' = parse_block rest' in
      ((key, Scalar_num f) :: pairs, rest'')
    | Str s :: rest' ->
      let pairs, rest'' = parse_block rest' in
      ((key, Scalar_str s) :: pairs, rest'')
    | Ident s :: rest' ->
      (* bare-word value (some Zoo files use unquoted identifiers) *)
      let pairs, rest'' = parse_block rest' in
      ((key, Scalar_str s) :: pairs, rest'')
    | Lbracket :: rest' ->
      let inner, rest'' = parse_block rest' in
      let pairs, rest''' = parse_block rest'' in
      ((key, Block inner) :: pairs, rest''')
    | _ -> failwith (Printf.sprintf "Gml: missing value for key %S" key))
  | _ -> failwith "Gml: expected key"

let find_all key pairs = List.filter_map (fun (k, v) -> if k = key then Some v else None) pairs
let find_num key pairs =
  List.find_map (fun (k, v) -> match v with Scalar_num f when k = key -> Some f | _ -> None) pairs
let find_str key pairs =
  List.find_map (fun (k, v) -> match v with Scalar_str s when k = key -> Some s | _ -> None) pairs

(* Node ids, sources and targets must be integers: truncating 1.2 and
   1.7 to the same id would silently merge two nodes. *)
let int_id what f =
  let i = int_of_float f in
  if Float.of_int i = f then i else failwith (Printf.sprintf "Gml: non-integral %s %g" what f)

let parse_string ?(link_capacity = 1000.) ?(fail_prob = 0.01) ~name s =
  let pairs, _ = parse_block (tokenize s) in
  let graph =
    match find_all "graph" pairs with
    | [ Block g ] -> g
    | [] -> failwith "Gml: no graph block"
    | _ -> failwith "Gml: multiple graph blocks"
  in
  let raw_nodes =
    find_all "node" graph
    |> List.filter_map (function
         | Block np ->
           let id =
             match find_num "id" np with
             | Some f -> int_id "node id" f
             | None -> failwith "Gml: node without id"
           in
           Some (id, find_str "label" np)
         | _ -> None)
  in
  if raw_nodes = [] then failwith "Gml: graph has no nodes";
  (* GML node ids need not be dense; remap. *)
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) raw_nodes in
  let remap = Hashtbl.create 64 in
  List.iteri (fun dense (gid, _) -> Hashtbl.replace remap gid dense) sorted;
  if Hashtbl.length remap < List.length sorted then failwith "Gml: duplicate node id";
  let node_names =
    Array.of_list
      (List.mapi
         (fun dense (_, label) ->
           match label with Some l -> l | None -> Printf.sprintf "n%d" dense)
         sorted)
  in
  let edges =
    find_all "edge" graph
    |> List.filter_map (function
         | Block ep -> (
           match (find_num "source" ep, find_num "target" ep) with
           | Some s, Some t -> (
             match
               ( Hashtbl.find_opt remap (int_id "edge source" s),
                 Hashtbl.find_opt remap (int_id "edge target" t) )
             with
             | Some a, Some b when a <> b -> Some (min a b, max a b)
             | Some _, Some _ -> None (* drop self loops *)
             | _ -> failwith "Gml: edge references unknown node")
           | _ -> failwith "Gml: edge without source/target")
         | _ -> None)
  in
  (* collapse parallel edges into one LAG per pair *)
  let edges = List.sort_uniq compare edges in
  let lags =
    List.mapi
      (fun id (src, dst) ->
        Lag.make ~id ~src ~dst [ { Lag.link_capacity; fail_prob } ])
      edges
  in
  Topology.create ~node_names ~name ~num_nodes:(Array.length node_names) lags

let load_file ?link_capacity ?fail_prob path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let name = Filename.remove_extension (Filename.basename path) in
  parse_string ?link_capacity ?fail_prob ~name s
