type stage = Witness_replay | Fast_fixed_demand | Deep_variable_demand

type witness = {
  scenario : Failure.Scenario.t;
  degradation : float;
  normalized : float;
  scenario_prob : float;
}

type bound = { demand : float; ceiling : float }

type verdict = {
  alert : bool;
  stage : stage option;
  witness : witness option;
  bound : bound option;
  fast : Analysis.report option;
  deep : Analysis.report option;
}

let exceeds report ~tolerance =
  match report.Analysis.status with
  | Milp.Solver.Optimal | Milp.Solver.Feasible -> report.Analysis.normalized > tolerance
  | _ -> false

let witness_exceeds w ~tolerance = w.normalized > tolerance
let bound_settles b ~tolerance = b.ceiling <= tolerance

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

(* deg(d, s) = H(d) - F(d, s) <= H(d) <= the total demand at d, and d
   is at most the entrywise max of the peak and the upper corner *)
let bound ~options topo ~peak (envelope : Traffic.Envelope.t) =
  match (options.Analysis.spec.Bilevel.goal, options.Analysis.spec.Bilevel.objective) with
  | Bilevel.Max_degradation, (Te.Formulation.Total_flow | Te.Formulation.Max_min _) ->
    let hi = Traffic.Demand.union_max peak envelope.Traffic.Envelope.hi in
    let demand = Traffic.Demand.total hi in
    Some { demand; ceiling = demand /. Float.max 1e-9 (Wan.Topology.avg_lag_capacity topo) }
  | _ -> None

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
  let bound = bound ~options topo ~peak envelope in
  let witnessed = Option.fold witness ~none:false ~some:(witness_exceeds ~tolerance) in
  if (not witnessed) && Option.fold bound ~none:false ~some:(bound_settles ~tolerance) then
    (* settled: no answer can exceed the tolerance, so nothing is solved *)
    { alert = false; stage = None; witness; bound; fast = None; deep = None }
  else begin
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
    let answer stage deep =
      { alert = stage <> None; stage; witness; bound; fast = Some fast; deep }
    in
    if witnessed then answer (Some Witness_replay) None
    else if exceeds fast ~tolerance then answer (Some Fast_fixed_demand) None
    else begin
      let deep = worst options in
      answer (if exceeds deep ~tolerance then Some Deep_variable_demand else None) (Some deep)
    end
  end
