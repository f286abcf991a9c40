type event = { down_at : float; up_at : float }

let validate events =
  let rec check prev_up = function
    | [] -> ()
    | e :: rest ->
      if e.down_at < prev_up then invalid_arg "Renewal: overlapping or unordered events";
      if e.up_at <= e.down_at then invalid_arg "Renewal: non-positive outage duration";
      check e.up_at rest
  in
  check Float.neg_infinity events

let estimate ~horizon events =
  if horizon <= 0. then invalid_arg "Renewal.estimate: non-positive horizon";
  validate events;
  let downtime =
    List.fold_left
      (fun acc e ->
        let d = Float.min e.up_at horizon -. Float.min e.down_at horizon in
        acc +. Float.max 0. d)
      0. events
  in
  Float.min 1. (downtime /. horizon)

(* Incremental estimator: the running-sum form of [estimate]. Each
   closed outage is folded once, in chronological order, with the same
   floating-point operations the batch fold performs, so every reading is
   bit-identical to [estimate] applied to the folded prefix (the test
   suite checks this on every prefix of generated traces). An open outage
   (link currently down, repair pending) is carried separately and
   clipped at the estimation horizon. *)
module Incr = struct
  type t = {
    n : int;  (* closed outages folded *)
    down_sum : float;  (* sum of closed-outage downtimes, fold order *)
    last_up : float;
    open_at : float option;  (* down_at of the open outage, if any *)
  }

  let empty = { n = 0; down_sum = 0.; last_up = Float.neg_infinity; open_at = None }

  let count t = t.n
  let is_down t = t.open_at <> None

  let down t ~at =
    if t.open_at <> None then invalid_arg "Renewal.Incr.down: link already down";
    if at < t.last_up then invalid_arg "Renewal.Incr.down: out-of-order event";
    { t with open_at = Some at }

  let up t ~at =
    match t.open_at with
    | None -> invalid_arg "Renewal.Incr.up: link is not down"
    | Some down_at ->
      if at <= down_at then invalid_arg "Renewal.Incr.up: non-positive outage";
      let d = at -. down_at in
      { n = t.n + 1; down_sum = t.down_sum +. d; last_up = at; open_at = None }

  let estimate ~horizon t =
    if horizon <= 0. then invalid_arg "Renewal.Incr.estimate: non-positive horizon";
    if t.n > 0 && horizon < t.last_up then
      invalid_arg "Renewal.Incr.estimate: horizon precedes folded events";
    let downtime =
      match t.open_at with
      | None -> t.down_sum
      | Some down_at ->
        (* matches the batch fold on events @ [open outage clipped at the
           horizon]: min up h -. min down h = max 0 (h -. down) here, so
           an outage opening past the horizon contributes nothing *)
        t.down_sum +. Float.max 0. (horizon -. down_at)
    in
    Float.min 1. (downtime /. horizon)
end
