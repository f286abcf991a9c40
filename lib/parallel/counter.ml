type t = { name : string; value : int ref Domain.DLS.key }

(* appended to at module initialisation only, read by any domain *)
let registered = ref [||]

let make name =
  let c = { name; value = Domain.DLS.new_key (fun () -> ref 0) } in
  registered := Array.append !registered [| c |];
  c

let name c = c.name

let add c n =
  let r = Domain.DLS.get c.value in
  r := !r + n

let incr c = Stdlib.incr (Domain.DLS.get c.value)
let get c = !(Domain.DLS.get c.value)
let registry () = Array.to_list !registered
let snapshot () = Array.map get !registered
let credit deltas = Array.iteri (fun i d -> if d <> 0 then add !registered.(i) d) deltas
