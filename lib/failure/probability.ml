let per_link_cost topo =
  let entries = ref [] in
  Array.iter
    (fun (lag : Wan.Lag.t) ->
      Array.iteri
        (fun i (l : Wan.Lag.link) ->
          let p = l.Wan.Lag.fail_prob in
          let cost =
            (* p >= 1 would make [log1p (-p)] equal -inf and the cost
               +inf -. -inf = nan through the subtraction below; an
               always-down link is special-cased to +inf (failing it is
               mandatory, not merely free) *)
            if p >= 1. then Float.infinity
            else if p > 0. then Float.log p -. Float.log1p (-.p)
            else Float.neg_infinity
          in
          entries := ((lag.Wan.Lag.lag_id, i), cost) :: !entries)
        lag.Wan.Lag.links)
    (Wan.Topology.lags topo);
  List.sort (fun (_, a) (_, b) -> compare b a) !entries

let max_simultaneous_failures topo ~threshold =
  if threshold <= 0. || threshold > 1. then
    invalid_arg "Probability.max_simultaneous_failures: threshold outside (0, 1]";
  let log_t = Float.log threshold in
  (* Always-down links (cost +inf) are mandatory: any scenario keeping
     one of them up has probability zero. They are failed unconditionally
     and the greedy base is that seed scenario's log probability — the
     all-up log probability is -inf whenever such links exist, which
     would otherwise poison the running sum. *)
  let mandatory, optional =
    List.partition (fun (_, c) -> c = Float.infinity) (per_link_cost topo)
  in
  let mandatory = List.map fst mandatory in
  let base = Scenario.log_prob topo (Scenario.of_links topo mandatory) in
  let rec greedy acc logp = function
    | [] -> (acc, logp)
    | (link, cost) :: rest ->
      let logp' = logp +. cost in
      if logp' >= log_t then greedy (link :: acc) logp' rest else (acc, logp)
  in
  let chosen, logp = greedy mandatory base optional in
  if logp >= log_t then (List.length chosen, Scenario.of_links topo chosen)
  else (0, Scenario.empty)
