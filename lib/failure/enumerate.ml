let all_links topo =
  let acc = ref [] in
  Array.iter
    (fun (lag : Wan.Lag.t) ->
      Array.iteri (fun i _ -> acc := (lag.Wan.Lag.lag_id, i) :: !acc) lag.Wan.Lag.links)
    (Wan.Topology.lags topo);
  List.rev !acc

let binomial n k =
  let k = min k (n - k) in
  if k < 0 then 0
  else begin
    let acc = ref 1 in
    for i = 0 to k - 1 do
      acc := !acc * (n - i) / (i + 1)
    done;
    !acc
  end

let count_up_to_k topo ~k =
  let n = List.length (all_links topo) in
  let rec sum i acc = if i > min k n then acc else sum (i + 1) (acc + binomial n i) in
  sum 0 0

let up_to_k topo ~k =
  if k < 0 then invalid_arg "Enumerate.up_to_k: k < 0";
  let total = count_up_to_k topo ~k in
  if total > 2_000_000 then
    invalid_arg (Printf.sprintf "Enumerate.up_to_k: %d scenarios is too many" total);
  let links = Array.of_list (all_links topo) in
  let n = Array.length links in
  let out = ref [] in
  let rec choose start chosen remaining =
    out := Scenario.of_links topo chosen :: !out;
    if remaining > 0 then
      for i = start to n - 1 do
        choose (i + 1) (links.(i) :: chosen) (remaining - 1)
      done
  in
  choose 0 [] (min k n);
  List.rev !out

let lag_failures_up_to_k topo ~k =
  if k < 0 then invalid_arg "Enumerate.lag_failures_up_to_k: k < 0";
  let lags = Wan.Topology.lags topo in
  let m = Array.length lags in
  let whole_lag (lag : Wan.Lag.t) =
    List.init (Wan.Lag.num_links lag) (fun i -> (lag.Wan.Lag.lag_id, i))
  in
  let out = ref [] in
  let rec choose start chosen remaining =
    out := Scenario.of_links topo (List.concat chosen) :: !out;
    if remaining > 0 then
      for i = start to m - 1 do
        choose (i + 1) (whole_lag lags.(i) :: chosen) (remaining - 1)
      done
  in
  choose 0 [] (min k m);
  List.rev !out
