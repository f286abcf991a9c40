let exp_sample rng mean = -.mean *. Float.log (Float.max 1e-12 (Random.State.float rng 1.))

let exponential ~seed ~mean_uptime ~mean_downtime ~horizon () =
  if mean_uptime <= 0. || mean_downtime <= 0. || horizon <= 0. then
    invalid_arg "Trace.exponential";
  let rng = Random.State.make [| seed |] in
  let rec run t acc =
    let up = exp_sample rng mean_uptime in
    let down_at = t +. up in
    if down_at >= horizon then List.rev acc
    else
      let down = exp_sample rng mean_downtime in
      let up_at = Float.min (down_at +. down) horizon in
      run up_at ({ Renewal.down_at; up_at } :: acc)
  in
  run 0. []

let calibrate_topology ~seed ~horizon topo =
  let lags = Wan.Topology.lags topo in
  let counter = ref 0 in
  let new_lags =
    Array.to_list lags
    |> List.map (fun (lag : Wan.Lag.t) ->
           let links =
             Array.to_list lag.Wan.Lag.links
             |> List.map (fun (l : Wan.Lag.link) ->
                    incr counter;
                    let p = l.Wan.Lag.fail_prob in
                    if p <= 0. then l
                    else begin
                      (* choose mean up/down times consistent with p:
                         p = mttr / (mtbf + mttr); fix mttr = 1 day *)
                      let mttr = 1. in
                      let mtbf = mttr *. ((1. /. p) -. 1.) in
                      let events =
                        exponential ~seed:(seed + !counter) ~mean_uptime:mtbf
                          ~mean_downtime:mttr ~horizon ()
                      in
                      let est = Renewal.estimate ~horizon events in
                      { l with Wan.Lag.fail_prob = Renewal.clamp_estimate est }
                    end)
           in
           Wan.Lag.make ~id:lag.Wan.Lag.lag_id ~src:lag.Wan.Lag.src ~dst:lag.Wan.Lag.dst
             links)
  in
  Wan.Topology.create
    ~node_names:(Array.init (Wan.Topology.num_nodes topo) (Wan.Topology.node_name topo))
    ~name:(Wan.Topology.name topo ^ "_calibrated")
    ~num_nodes:(Wan.Topology.num_nodes topo)
    new_lags
