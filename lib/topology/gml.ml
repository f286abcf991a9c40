type token = Lbracket | Rbracket | Ident of string | Str of string | Num of float

let fail line fmt =
  Printf.ksprintf (fun m -> failwith (Printf.sprintf "Gml: line %d: %s" line m)) fmt

(* Tokens paired with the line they start on, plus the last line. *)
let tokenize s =
  let n = String.length s in
  let tokens = ref [] in
  let i = ref 0 and line = ref 1 in
  let emit tok = tokens := (tok, !line) :: !tokens in
  let is_digit c = c >= '0' && c <= '9' in
  let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  (* the run of characters from [!i] on that satisfy [ok] (at least one) *)
  let span ok =
    let start = !i in
    incr i;
    while !i < n && ok s.[!i] do incr i done;
    String.sub s start (!i - start)
  in
  while !i < n do
    match s.[!i] with
    | '\n' ->
      incr line;
      incr i
    | ' ' | '\t' | '\r' -> incr i
    | '#' ->
      (* comment to end of line *)
      while !i < n && s.[!i] <> '\n' do incr i done
    | ('[' | ']') as c ->
      emit (if c = '[' then Lbracket else Rbracket);
      incr i
    | '"' ->
      let start_line = !line in
      incr i;
      let b = Buffer.create 16 in
      while !i < n && s.[!i] <> '"' do
        if s.[!i] = '\n' then incr line;
        Buffer.add_char b s.[!i];
        incr i
      done;
      if !i >= n then fail start_line "unterminated string";
      incr i;
      tokens := (Str (Buffer.contents b), start_line) :: !tokens
    | c when is_digit c || c = '-' || c = '+' || c = '.' -> (
      let lit = span (fun c -> is_digit c || String.contains ".eE-+" c) in
      match float_of_string_opt lit with
      | Some f -> emit (Num f)
      | None -> fail !line "bad number %S" lit)
    | c when is_alpha c -> emit (Ident (span (fun c -> is_alpha c || is_digit c)))
    | c -> fail !line "unexpected character %C" c
  done;
  (List.rev !tokens, !line)

(* A GML value is a scalar or a block of key/value pairs; each pair
   keeps the line of its key. *)
type value =
  | Scalar_num of float
  | Scalar_str of string
  | Block of (string * int * value) list

let rec parse_block tokens =
  (* parses key/value pairs until Rbracket or end; returns (pairs, rest) *)
  match tokens with
  | [] -> ([], [])
  | (Rbracket, _) :: rest -> ([], rest)
  | (Ident key, line) :: rest -> (
    let value v rest =
      let pairs, rest = parse_block rest in
      ((key, line, v) :: pairs, rest)
    in
    match rest with
    | (Num f, _) :: rest' -> value (Scalar_num f) rest'
    | (Str s, _) :: rest' -> value (Scalar_str s) rest'
    (* bare-word value (some Zoo files use unquoted identifiers) *)
    | (Ident s, _) :: rest' -> value (Scalar_str s) rest'
    | (Lbracket, _) :: rest' ->
      let inner, rest'' = parse_block rest' in
      value (Block inner) rest''
    | _ -> fail line "missing value for key %S" key)
  | (_, line) :: _ -> fail line "expected key"

(* (line, value) of every [key] entry, in file order *)
let find_all key pairs =
  List.filter_map (fun (k, line, v) -> if k = key then Some (line, v) else None) pairs
let find_num key pairs =
  List.find_map (fun (k, _, v) -> match v with Scalar_num f when k = key -> Some f | _ -> None) pairs
let find_str key pairs =
  List.find_map (fun (k, _, v) -> match v with Scalar_str s when k = key -> Some s | _ -> None) pairs

(* the [key] entries that are blocks, each with its line *)
let blocks key pairs =
  List.filter_map (function line, Block b -> Some (line, b) | _ -> None) (find_all key pairs)

(* Node ids, sources and targets must be integers: truncating 1.2 and
   1.7 to the same id would silently merge two nodes. *)
let int_id line what f =
  let i = int_of_float f in
  if Float.of_int i = f then i else fail line "non-integral %s %g" what f

let parse_string ?(link_capacity = 1000.) ?(fail_prob = 0.01) ~name s =
  let tokens, last_line = tokenize s in
  let pairs, _ = parse_block tokens in
  let graph_line, graph =
    match find_all "graph" pairs with
    | [] -> fail last_line "no graph block"
    | [ (line, Block g) ] -> (line, g)
    | entries -> (
      match List.find_opt (function _, Block _ -> false | _ -> true) entries with
      | Some (line, _) -> fail line "graph is not a block"
      | None -> fail (fst (List.nth entries 1)) "multiple graph blocks")
  in
  let raw_nodes =
    List.map
      (fun (line, np) ->
        match find_num "id" np with
        | Some f -> (int_id line "node id" f, line, find_str "label" np)
        | None -> fail line "node without id")
      (blocks "node" graph)
  in
  if raw_nodes = [] then fail graph_line "graph has no nodes";
  (* GML node ids need not be dense; remap. The sort is stable, so a
     duplicate id is reported at its later block. *)
  let sorted = List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b) raw_nodes in
  let remap = Hashtbl.create 64 in
  List.iteri
    (fun dense (gid, line, _) ->
      if Hashtbl.mem remap gid then fail line "duplicate node id %d" gid;
      Hashtbl.replace remap gid dense)
    sorted;
  let node_names =
    Array.of_list
      (List.mapi
         (fun dense (_, _, label) ->
           match label with Some l -> l | None -> Printf.sprintf "n%d" dense)
         sorted)
  in
  let edges =
    List.filter_map
      (fun (line, ep) ->
        match (find_num "source" ep, find_num "target" ep) with
        | Some s, Some t -> (
          let node what f =
            let id = int_id line what f in
            match Hashtbl.find_opt remap id with
            | Some dense -> dense
            | None -> fail line "edge references unknown node %d" id
          in
          let a = node "edge source" s in
          let b = node "edge target" t in
          if a = b then None (* drop self loops *) else Some (min a b, max a b))
        | _ -> fail line "edge without source/target")
      (blocks "edge" graph)
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
