type t = {
  orig_nv : int;
  fixed : float array; (* per original id; meaningful where reduced_of < 0 *)
  kept : int array; (* reduced id -> original id *)
  reduced_of : int array; (* original id -> reduced id, -1 when fixed *)
}

let make ~is_fixed ~value =
  let orig_nv = Array.length is_fixed in
  let reduced_of = Array.make orig_nv (-1) in
  let n = ref 0 in
  for j = 0 to orig_nv - 1 do
    if not is_fixed.(j) then begin
      reduced_of.(j) <- !n;
      incr n
    end
  done;
  let kept = Array.make !n 0 in
  for j = 0 to orig_nv - 1 do
    if reduced_of.(j) >= 0 then kept.(reduced_of.(j)) <- j
  done;
  { orig_nv; fixed = Array.copy value; kept; reduced_of }

let orig_of_reduced t rid = t.kept.(rid)

let reduced_of_orig t j =
  if t.reduced_of.(j) < 0 then None else Some t.reduced_of.(j)

let value_of_fixed t j = if t.reduced_of.(j) < 0 then Some t.fixed.(j) else None

let restore t reduced =
  if Array.length reduced < Array.length t.kept then reduced
  else begin
    let out = Array.copy t.fixed in
    Array.iteri (fun rid j -> out.(j) <- reduced.(rid)) t.kept;
    out
  end

let restore_statuses t ~fill reduced =
  if Array.length reduced < Array.length t.kept then reduced
  else begin
    let out = Array.make t.orig_nv fill in
    Array.iteri (fun rid j -> out.(j) <- reduced.(rid)) t.kept;
    out
  end

let reduce_point t orig =
  if Array.length orig < t.orig_nv then None
  else Some (Array.map (fun j -> orig.(j)) t.kept)

let reduce_hint t hint =
  List.filter_map
    (fun (j, v) ->
      if j < 0 || j >= t.orig_nv || t.reduced_of.(j) < 0 then None
      else Some (t.reduced_of.(j), v))
    hint
