module Pmap = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type t = float Pmap.t

let empty = Pmap.empty

let add m (src, dst) v =
  if src < 0 || dst < 0 then Error "negative node id"
  else if src = dst then Error "src = dst"
  else if not (v >= 0. && Float.is_finite v) then Error "volume must be finite and >= 0"
  else if Pmap.mem (src, dst) m then Error "duplicate pair"
  else Ok (Pmap.add (src, dst) v m)

let of_list entries =
  List.fold_left
    (fun m (pair, v) ->
      match add m pair v with
      | Ok m -> m
      | Error e -> invalid_arg ("Demand.of_list: " ^ e))
    empty entries

let volume m ~src ~dst = match Pmap.find_opt (src, dst) m with Some v -> v | None -> 0.
let pairs m = Pmap.bindings m |> List.map fst
let entries m = Pmap.bindings m
let total m = Pmap.fold (fun _ v acc -> acc +. v) m 0.
let scale k m = Pmap.map (fun v -> k *. v) m

let union_max a b =
  Pmap.union (fun _ x y -> Some (Float.max x y)) a b

let set m ~src ~dst v =
  if v < 0. then invalid_arg "Demand.set: negative volume";
  Pmap.add (src, dst) v m

let map f m = Pmap.mapi (fun (src, dst) v -> f ~src ~dst v) m

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  Pmap.iter (fun (s, d) v -> Format.fprintf ppf "%d->%d: %g@," s d v) m;
  Format.fprintf ppf "@]"
