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

let fast_options options =
  { options with Analysis.time_limit = options.Analysis.time_limit /. 4. }

let fast_check ~options topo paths ~peak =
  Analysis.analyze ~options:(fast_options options) topo paths
    (Traffic.Envelope.fixed peak)

let run ?(options = Analysis.default_options) ?(tolerance = 0.1) topo paths ~peak
    envelope =
  (* a point envelope at the peak: the one test ({!Traffic.Envelope.is_fixed})
     by which the service's pipeline and the bi-level model's fixed
     fast path also tell a point envelope *)
  let point =
    Traffic.Envelope.is_fixed envelope
    && Traffic.Demand.entries envelope.Traffic.Envelope.hi = Traffic.Demand.entries peak
  in
  (* there the fast stage is the envelope's own worst case, so a proved
     fast answer is the deep answer: the search is deterministic, and
     only a budget could stop it *)
  let fast =
    if point then Analysis.analyze ~options:(fast_options options) topo paths envelope
    else fast_check ~options topo paths ~peak
  in
  if exceeds fast ~tolerance then
    { alert = true; stage = Some Fast_fixed_demand; fast; deep = None }
  else begin
    let deep =
      if point && fast.Analysis.status = Milp.Solver.Optimal then fast
      else Analysis.analyze ~options topo paths envelope
    in
    if exceeds deep ~tolerance then
      { alert = true; stage = Some Deep_variable_demand; fast; deep = Some deep }
    else { alert = false; stage = None; fast; deep = Some deep }
  end
