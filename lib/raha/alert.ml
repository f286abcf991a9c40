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

let fast_check ~options topo paths ~peak =
  let options =
    { options with Analysis.time_limit = options.Analysis.time_limit /. 4. }
  in
  Analysis.analyze ~options topo paths (Traffic.Envelope.fixed peak)

let run ?(options = Analysis.default_options) ?(tolerance = 0.1) topo paths ~peak
    envelope =
  let fast = fast_check ~options topo paths ~peak in
  if exceeds fast ~tolerance then
    { alert = true; stage = Some Fast_fixed_demand; fast; deep = None }
  else begin
    let deep = Analysis.analyze ~options topo paths envelope in
    if exceeds deep ~tolerance then
      { alert = true; stage = Some Deep_variable_demand; fast; deep = Some deep }
    else { alert = false; stage = None; fast; deep = Some deep }
  end
