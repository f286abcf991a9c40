module Imap = Map.Make (Int)

type t = { coeffs : float Imap.t; const : float }

let zero = { coeffs = Imap.empty; const = 0. }

let put id c m = if c = 0. then Imap.remove id m else Imap.add id c m

let var ?(coeff = 1.0) id =
  if id < 0 then invalid_arg "Linexpr.var: negative id";
  { coeffs = put id coeff Imap.empty; const = 0. }

let const c = { coeffs = Imap.empty; const = c }

let add_term e c id =
  if id < 0 then invalid_arg "Linexpr.add_term: negative id";
  let c' = (match Imap.find_opt id e.coeffs with Some x -> x | None -> 0.) +. c in
  { e with coeffs = put id c' e.coeffs }

let of_terms ?(const = 0.) terms =
  List.fold_left (fun e (c, id) -> add_term e c id) { zero with const } terms

let add a b =
  let coeffs =
    Imap.union (fun _ x y -> let s = x +. y in if s = 0. then None else Some s) a.coeffs b.coeffs
  in
  { coeffs; const = a.const +. b.const }

let scale k e =
  if k = 0. then zero
  else { coeffs = Imap.map (fun c -> k *. c) e.coeffs; const = k *. e.const }

let neg e = scale (-1.) e
let sub a b = add a (neg b)
let sum es = List.fold_left add zero es
let constant e = e.const
let terms e = Imap.fold (fun id c acc -> (c, id) :: acc) e.coeffs [] |> List.rev
let iter f e = Imap.iter f e.coeffs

let eval values e =
  Imap.fold (fun id c acc -> acc +. (c *. values.(id))) e.coeffs e.const

let is_constant e = Imap.is_empty e.coeffs
