type stage = Fast_fixed_demand | Deep_variable_demand

type verdict = {
  alert : bool;
  stage : stage option;
  fast : Analysis.report;
  deep : Analysis.report option;
}

let exceeds report ~tolerance =
  match report.Analysis.status with
  | Milp.Solver.Optimal | Milp.Solver.Feasible -> report.Analysis.normalized > tolerance
  | _ -> false

let fast ~options ~worst topo paths ~peak envelope =
  let options = { options with Analysis.time_limit = options.Analysis.time_limit /. 4. } in
  if
    Traffic.Envelope.is_fixed envelope
    && Traffic.Demand.entries envelope.Traffic.Envelope.hi = Traffic.Demand.entries peak
  then worst options
  else Analysis.analyze ~options topo paths (Traffic.Envelope.fixed peak)

let run ?(options = Analysis.default_options) ?(tolerance = 0.1) topo paths ~peak
    envelope =
  (* the envelope's worst case; a proved answer is re-read, since the
     search is deterministic and only a budget could have stopped it *)
  let last = ref None in
  let worst options =
    match !last with
    | Some r when r.Analysis.status = Milp.Solver.Optimal -> r
    | _ ->
      let r = Analysis.analyze ~options topo paths envelope in
      last := Some r;
      r
  in
  let fast = fast ~options ~worst topo paths ~peak envelope in
  if exceeds fast ~tolerance then
    { alert = true; stage = Some Fast_fixed_demand; fast; deep = None }
  else begin
    let deep = worst options in
    if exceeds deep ~tolerance then
      { alert = true; stage = Some Deep_variable_demand; fast; deep = Some deep }
    else { alert = false; stage = None; fast; deep = Some deep }
  end
