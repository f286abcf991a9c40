type stage = Witness_replay | Fast_fixed_demand | Deep_variable_demand

type witness = {
  scenario : Failure.Scenario.t;
  degradation : float;
  normalized : float;
  scenario_prob : float;
}

type verdict = {
  alert : bool;
  stage : stage option;
  witness : witness option;
  fast : Analysis.report;
  deep : Analysis.report option;
}

let exceeds report ~tolerance =
  match report.Analysis.status with
  | Milp.Solver.Optimal | Milp.Solver.Feasible -> report.Analysis.normalized > tolerance
  | _ -> false

let witness_exceeds w ~tolerance = w.normalized > tolerance

let witness ~options ?screen ?pooled topo paths ~peak =
  match options.Analysis.spec.Bilevel.goal with
  | Bilevel.Min_failed_performance -> (None, None)
  | Bilevel.Max_degradation ->
    let candidates =
      Analysis.screen_candidates ?screen ?pooled ~spec:options.Analysis.spec topo paths
        (Traffic.Envelope.fixed peak)
    in
    let best =
      Option.map
        (fun (scenario, degradation) ->
          {
            scenario;
            degradation;
            normalized = degradation /. Float.max 1e-9 (Wan.Topology.avg_lag_capacity topo);
            scenario_prob = Failure.Scenario.prob topo scenario;
          })
        (Analysis.best_candidate candidates)
    in
    (Some candidates, best)

let fast ~options ?candidates ~worst topo paths ~peak envelope =
  let options = { options with Analysis.time_limit = options.Analysis.time_limit /. 4. } in
  if
    Traffic.Envelope.is_fixed envelope
    && Traffic.Demand.entries envelope.Traffic.Envelope.hi = Traffic.Demand.entries peak
  then worst options
  else Analysis.analyze ?candidates ~options topo paths (Traffic.Envelope.fixed peak)

let run ?(options = Analysis.default_options) ?(tolerance = 0.1) topo paths ~peak
    envelope =
  let candidates, witness = witness ~options topo paths ~peak in
  (* the envelope's worst case; a proved answer is re-read, since the
     search is deterministic and only a budget could have stopped it *)
  let last = ref None in
  let worst options =
    match !last with
    | Some r when r.Analysis.status = Milp.Solver.Optimal -> r
    | _ ->
      let r = Analysis.analyze ?candidates ~options topo paths envelope in
      last := Some r;
      r
  in
  let fast = fast ~options ?candidates ~worst topo paths ~peak envelope in
  let stage =
    if Option.fold witness ~none:false ~some:(witness_exceeds ~tolerance) then
      Some Witness_replay
    else if exceeds fast ~tolerance then Some Fast_fixed_demand
    else None
  in
  if stage <> None then { alert = true; stage; witness; fast; deep = None }
  else begin
    let deep = worst options in
    if exceeds deep ~tolerance then
      { alert = true; stage = Some Deep_variable_demand; witness; fast; deep = Some deep }
    else { alert = false; stage = None; witness; fast; deep = Some deep }
  end
