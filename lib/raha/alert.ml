type stage = Witness_replay | Bound_total_demand | Fast_fixed_demand | Deep_variable_demand

type witness = { scenario : Failure.Scenario.t; degradation : float; scenario_prob : float }

type evidence = { lo : float; hi : float; per : float }

type answer =
  | Replayed of witness
  | Ceiling of float
  | Fast of Analysis.report
  | Deep of Analysis.report

type decision = Exceeded | Within | Open

type verdict = {
  decision : decision;
  stage : stage option;
  witness : witness option;
  bound : float option;
  fast : Analysis.report option;
  deep : Analysis.report option;
}

let evidence topo answer =
  let solved (r : Analysis.report) =
    match r.status with Milp.Solver.Optimal | Feasible -> r.degradation | _ -> neg_infinity
  in
  let lo, hi =
    match answer with
    | Replayed w -> (w.degradation, infinity)
    | Ceiling demand -> (neg_infinity, demand)
    | Fast r -> (solved r, infinity)
    | Deep r -> (solved r, if r.status = Milp.Solver.Optimal then r.degradation else infinity)
  in
  { lo; hi; per = Float.max 1e-9 (Wan.Topology.avg_lag_capacity topo) }

let decide e ~tolerance =
  if e.lo /. e.per > tolerance then Exceeded
  else if e.hi /. e.per <= tolerance then Within
  else Open

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
          { scenario; degradation; scenario_prob = Failure.Scenario.prob topo scenario })
        (Analysis.best_candidate candidates)
    in
    (Some candidates, best)

(* deg(d, s) = H(d) - F(d, s) <= H(d) <= the total demand at d, and d
   is at most the entrywise max of the peak and the upper corner *)
let bound ~options ~peak (envelope : Traffic.Envelope.t) =
  match (options.Analysis.spec.Bilevel.goal, options.Analysis.spec.Bilevel.objective) with
  | Bilevel.Max_degradation, (Te.Formulation.Total_flow | Te.Formulation.Max_min _) ->
    Some (Traffic.Demand.total (Traffic.Demand.union_max peak envelope.Traffic.Envelope.hi))
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
  let bound = bound ~options ~peak envelope in
  (* the first of [stages] whose answer decides [tolerance] *)
  let rec first = function
    | [] -> (Open, None)
    | (stage, a) :: rest -> (
      match decide (evidence topo a) ~tolerance with Open -> first rest | d -> (d, Some stage))
  in
  let verdict ?fast ?deep (decision, stage) = { decision; stage; witness; bound; fast; deep } in
  let stages =
    Option.to_list (Option.map (fun w -> (Witness_replay, Replayed w)) witness)
    @ Option.to_list (Option.map (fun b -> (Bound_total_demand, Ceiling b)) bound)
  in
  match first stages with
  | (_, Some Bound_total_demand) as d -> verdict d (* settled: nothing is solved *)
  | _ -> (
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
    let stages = stages @ [ (Fast_fixed_demand, Fast fast) ] in
    match first stages with
    | Open, _ ->
      let deep = worst options in
      verdict ~fast ~deep (first (stages @ [ (Deep_variable_demand, Deep deep) ]))
    | d -> verdict ~fast d)
