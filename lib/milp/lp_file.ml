(* Variable names must be LP-format safe: alphanumerics plus a few
   symbols, not starting with a digit or 'e'. We emit x<id> and keep the
   human name in a comment header. *)

let var_name id = Printf.sprintf "x%d" id

let append_expr b e =
  let first = ref true in
  Linexpr.iter
    (fun id c ->
      if c <> 0. then begin
        if c < 0. then Buffer.add_string b (if !first then "-" else "- ")
        else if not !first then Buffer.add_string b "+ ";
        let mag = Float.abs c in
        if mag <> 1. then Buffer.add_string b (Printf.sprintf "%.12g " mag);
        Buffer.add_string b (var_name id);
        Buffer.add_char b ' ';
        first := false
      end)
    e;
  if !first then Buffer.add_string b "0 "

let to_string m =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Printf.sprintf "\\ model: %s\n" (Model.name m));
  Array.iter
    (fun (v : Model.var) ->
      Buffer.add_string b (Printf.sprintf "\\ %s = %s\n" (var_name v.Model.vid) v.Model.vname))
    (Model.vars m);
  let sense, obj = Model.objective m in
  Buffer.add_string b
    (match sense with Model.Maximize -> "Maximize\n obj: " | Model.Minimize -> "Minimize\n obj: ");
  append_expr b obj;
  (* Presolved models carry the fixed variables' contribution as an
     objective constant; CPLEX LP format allows a bare constant term. *)
  (match Linexpr.constant obj with
  | 0. -> ()
  | c ->
    Buffer.add_string b
      (Printf.sprintf "%s %.12g " (if c < 0. then "-" else "+") (Float.abs c)));
  Buffer.add_string b "\nSubject To\n";
  Array.iteri
    (fun i (c : Model.cons) ->
      Buffer.add_string b (Printf.sprintf " c%d: " i);
      append_expr b c.Model.lhs;
      let rel = match c.Model.rel with Model.Le -> "<=" | Model.Ge -> ">=" | Model.Eq -> "=" in
      Buffer.add_string b (Printf.sprintf "%s %.12g\n" rel c.Model.rhs))
    (Model.conss m);
  Buffer.add_string b "Bounds\n";
  Array.iter
    (fun (v : Model.var) ->
      let name = var_name v.Model.vid in
      let lb =
        if v.Model.lb = Float.neg_infinity then "-inf" else Printf.sprintf "%.12g" v.Model.lb
      in
      let ub =
        if v.Model.ub = Float.infinity then "+inf" else Printf.sprintf "%.12g" v.Model.ub
      in
      Buffer.add_string b (Printf.sprintf " %s <= %s <= %s\n" lb name ub))
    (Model.vars m);
  let of_kind k =
    Array.to_list (Model.vars m)
    |> List.filter_map (fun (v : Model.var) ->
           if v.Model.kind = k then Some (var_name v.Model.vid) else None)
  in
  (match of_kind Model.Binary with
  | [] -> ()
  | bins ->
    Buffer.add_string b "Binaries\n ";
    Buffer.add_string b (String.concat " " bins);
    Buffer.add_char b '\n');
  (match of_kind Model.Integer with
  | [] -> ()
  | ints ->
    Buffer.add_string b "Generals\n ";
    Buffer.add_string b (String.concat " " ints);
    Buffer.add_char b '\n');
  Buffer.add_string b "End\n";
  Buffer.contents b

let write m path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string m))

(* --- parsing ----------------------------------------------------------- *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let number_of t = float_of_string_opt t

let is_rel t = t = "<=" || t = ">=" || t = "=" || t = "<" || t = ">"

let is_label t = String.length t > 0 && t.[String.length t - 1] = ':'

(* Whitespace tokens, with a sign glued onto a name split off ("-x3" ->
   "-" "x3") while signed numbers ("-2.5", "-inf", "1e-06") stay whole. *)
let tokens_of line =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) line)
  |> List.filter (fun t -> t <> "")
  |> List.concat_map (fun t ->
         if
           String.length t > 1
           && (t.[0] = '-' || t.[0] = '+')
           && number_of t = None
         then [ String.make 1 t.[0]; String.sub t 1 (String.length t - 1) ]
         else [ t ])

let of_string s =
  (* collect the sections line by line *)
  let sense = ref None in
  let obj_toks = ref [] (* reversed *) in
  let cons_toks = ref [] (* reversed *) in
  let bound_lines = ref [] (* reversed token lists *) in
  let bins = ref [] and gens = ref [] in
  let section = ref `None in
  List.iter
    (fun line ->
      let line =
        match String.index_opt line '\\' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      match String.lowercase_ascii (String.trim line) with
      | "maximize" | "max" ->
        sense := Some Model.Maximize;
        section := `Obj
      | "minimize" | "min" ->
        sense := Some Model.Minimize;
        section := `Obj
      | "subject to" | "st" | "s.t." | "such that" -> section := `Cons
      | "bounds" | "bound" -> section := `Bounds
      | "binaries" | "binary" | "bin" -> section := `Bin
      | "generals" | "general" | "gen" | "integers" | "integer" -> section := `Gen
      | "end" -> section := `End
      | "" -> ()
      | _ -> (
        let toks = tokens_of line in
        match !section with
        | `Obj -> obj_toks := List.rev_append toks !obj_toks
        | `Cons -> cons_toks := List.rev_append toks !cons_toks
        | `Bounds -> bound_lines := toks :: !bound_lines
        | `Bin -> bins := !bins @ toks
        | `Gen -> gens := !gens @ toks
        | `None | `End -> fail "unexpected content outside any section: %s" line))
    (String.split_on_char '\n' s);
  (* variable names, in order of first appearance *)
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  let note name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.add seen name ();
      order := name :: !order
    end
  in
  (* [terms, constant, next] from a token array, stopping at a relation *)
  let parse_linear toks i0 =
    let n = Array.length toks in
    let terms = ref [] and const = ref 0. and sign = ref 1. and i = ref i0 in
    while !i < n && not (is_rel toks.(!i)) do
      let t = toks.(!i) in
      if is_label t then incr i
      else if t = "+" then incr i
      else if t = "-" then begin
        sign := -. !sign;
        incr i
      end
      else begin
        (match number_of t with
        | Some v ->
          if !i + 1 < n && number_of toks.(!i + 1) = None
             && (not (is_rel toks.(!i + 1)))
             && (not (is_label toks.(!i + 1)))
             && toks.(!i + 1) <> "+" && toks.(!i + 1) <> "-"
          then begin
            note toks.(!i + 1);
            terms := (!sign *. v, toks.(!i + 1)) :: !terms;
            incr i
          end
          else const := !const +. (!sign *. v)
        | None ->
          note t;
          terms := (!sign, t) :: !terms);
        sign := 1.;
        incr i
      end
    done;
    (List.rev !terms, !const, !i)
  in
  let read_num toks i what =
    let n = Array.length toks in
    let sign = ref 1. and i = ref i in
    while !i < n && (toks.(!i) = "+" || toks.(!i) = "-") do
      if toks.(!i) = "-" then sign := -. !sign;
      incr i
    done;
    if !i >= n then fail "missing number for %s" what;
    match number_of toks.(!i) with
    | Some v -> (!sign *. v, !i + 1)
    | None -> fail "expected a number for %s, got %s" what toks.(!i)
  in
  (* objective *)
  let sense = match !sense with Some s -> s | None -> fail "no objective section" in
  let obj_terms, obj_const, _ =
    parse_linear (Array.of_list (List.rev !obj_toks)) 0
  in
  (* constraints: label? expr rel rhs, repeated *)
  let conss = ref [] in
  let ctoks = Array.of_list (List.rev !cons_toks) in
  let nc = Array.length ctoks in
  let i = ref 0 in
  while !i < nc do
    let label =
      if is_label ctoks.(!i) then begin
        let t = ctoks.(!i) in
        incr i;
        Some (String.sub t 0 (String.length t - 1))
      end
      else None
    in
    let terms, const, i' = parse_linear ctoks !i in
    if i' >= nc then fail "constraint without relation";
    let rel =
      match ctoks.(i') with
      | "<=" | "<" -> Model.Le
      | ">=" | ">" -> Model.Ge
      | "=" -> Model.Eq
      | t -> fail "unknown relation %s" t
    in
    let rhs, i'' = read_num ctoks (i' + 1) "constraint rhs" in
    conss := (label, terms, const, rel, rhs) :: !conss;
    i := i''
  done;
  let conss = List.rev !conss in
  (* bounds *)
  let lbs = Hashtbl.create 64 and ubs = Hashtbl.create 64 in
  let set_lb name v = Hashtbl.replace lbs name v in
  let set_ub name v = Hashtbl.replace ubs name v in
  List.iter
    (fun toks ->
      let toks = Array.of_list (List.filter (fun t -> not (is_label t)) toks) in
      let n = Array.length toks in
      if n > 0 then begin
        let is_name t = number_of t = None && not (is_rel t) in
        if n = 2 && is_name toks.(0) && String.lowercase_ascii toks.(1) = "free"
        then begin
          note toks.(0);
          set_lb toks.(0) Float.neg_infinity;
          set_ub toks.(0) Float.infinity
        end
        else if is_name toks.(0) then begin
          (* x rel num *)
          note toks.(0);
          if n < 3 || not (is_rel toks.(1)) then fail "malformed bound line";
          let v, _ = read_num toks 2 "bound" in
          match toks.(1) with
          | "<=" | "<" -> set_ub toks.(0) v
          | ">=" | ">" -> set_lb toks.(0) v
          | _ ->
            set_lb toks.(0) v;
            set_ub toks.(0) v
        end
        else begin
          (* num rel x [rel num] *)
          let v, i1 = read_num toks 0 "bound" in
          if i1 >= n || not (is_rel toks.(i1)) then fail "malformed bound line";
          let rel1 = toks.(i1) in
          if i1 + 1 >= n || not (is_name toks.(i1 + 1)) then
            fail "malformed bound line";
          let name = toks.(i1 + 1) in
          note name;
          (match rel1 with
          | "<=" | "<" -> set_lb name v
          | ">=" | ">" -> set_ub name v
          | _ ->
            set_lb name v;
            set_ub name v);
          if i1 + 2 < n then begin
            if not (is_rel toks.(i1 + 2)) then fail "malformed bound line";
            let v2, _ = read_num toks (i1 + 3) "bound" in
            match toks.(i1 + 2) with
            | "<=" | "<" -> set_ub name v2
            | ">=" | ">" -> set_lb name v2
            | _ ->
              set_lb name v2;
              set_ub name v2
          end
        end
      end)
    (List.rev !bound_lines);
  List.iter note !bins;
  List.iter note !gens;
  (* id resolution: the writer's canonical x<id> names keep their ids
     when they are dense (0 .. n-1 over n distinct names, which holds
     for every [to_string] output since it lists each variable under
     Bounds); any other naming — including sparse ids, which would size
     the model by the largest one — falls back to first-appearance
     order *)
  let order = List.rev !order in
  let canonical name =
    let n = String.length name in
    if n >= 2 && name.[0] = 'x' then
      (* exactly the writer's spelling: "x01" or "x0x1" would alias x1 *)
      match int_of_string_opt (String.sub name 1 (n - 1)) with
      | Some d when d >= 0 && var_name d = name -> Some d
      | _ -> None
    else None
  in
  let dense =
    let nv = List.length order in
    List.for_all
      (fun n -> match canonical n with Some d -> d < nv | None -> false)
      order
  in
  let id_of, nv, name_of_id =
    if dense then
      ((fun n -> Option.get (canonical n)), List.length order, fun j -> var_name j)
    else begin
      let tbl = Hashtbl.create 64 in
      List.iteri (fun i n -> Hashtbl.add tbl n i) order;
      let names = Array.of_list order in
      ((fun n -> Hashtbl.find tbl n), Array.length names, fun j -> names.(j))
    end
  in
  let kind = Array.make (max nv 1) Model.Continuous in
  List.iter (fun n -> kind.(id_of n) <- Model.Binary) !bins;
  List.iter (fun n -> kind.(id_of n) <- Model.Integer) !gens;
  let lb = Array.make (max nv 1) 0. and ub = Array.make (max nv 1) Float.infinity in
  Hashtbl.iter (fun n v -> lb.(id_of n) <- v) lbs;
  Hashtbl.iter (fun n v -> ub.(id_of n) <- v) ubs;
  let m = Model.create ~name:"lp" () in
  for j = 0 to nv - 1 do
    match Model.add_var m ~name:(name_of_id j) ~kind:kind.(j) ~lb:lb.(j) ~ub:ub.(j) with
    | _ -> ()
    | exception Invalid_argument msg -> fail "%s" msg
  done;
  List.iter
    (fun (label, terms, const, rel, rhs) ->
      let e =
        Linexpr.of_terms ~const (List.map (fun (c, n) -> (c, id_of n)) terms)
      in
      match label with
      | Some name -> Model.add_cons m ~name e rel rhs
      | None -> Model.add_cons m e rel rhs)
    conss;
  Model.set_objective m sense
    (Linexpr.of_terms ~const:obj_const
       (List.map (fun (c, n) -> (c, id_of n)) obj_terms));
  m

let read path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
