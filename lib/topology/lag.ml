type link = { link_capacity : float; fail_prob : float }

type t = { lag_id : int; src : int; dst : int; links : link array }

let check_link l =
  if not (l.link_capacity > 0. && Float.is_finite l.link_capacity) then
    Error "capacity not positive and finite"
  else if not (l.fail_prob >= 0. && l.fail_prob <= 1.) then Error "fail_prob outside [0, 1]"
  else Ok ()

let make ~id ~src ~dst links =
  if src = dst then invalid_arg "Lag.make: self-loop";
  if src < 0 || dst < 0 then invalid_arg "Lag.make: negative node id";
  if links = [] then invalid_arg "Lag.make: empty link bundle";
  List.iter
    (fun l -> Result.iter_error (fun e -> invalid_arg ("Lag.make: " ^ e)) (check_link l))
    links;
  { lag_id = id; src; dst; links = Array.of_list links }

let uniform ~id ~src ~dst ~n ~capacity ~fail_prob =
  if n <= 0 then invalid_arg "Lag.uniform: n <= 0";
  make ~id ~src ~dst
    (List.init n (fun _ -> { link_capacity = capacity; fail_prob }))

let capacity t = Array.fold_left (fun acc l -> acc +. l.link_capacity) 0. t.links

let num_links t = Array.length t.links

let prob_all_links_down t =
  Array.fold_left (fun acc l -> acc *. l.fail_prob) 1. t.links

let pp ppf t =
  Format.fprintf ppf "lag%d(%d-%d, %d links, cap %g)" t.lag_id t.src t.dst
    (num_links t) (capacity t)
