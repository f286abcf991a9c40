let summary_row (r : Analysis.report) =
  Format.asprintf "%a,%.9g,%.9g,%.9g,%d,%.6g,%.9g,%.9g,%d"
    Milp.Solver.pp_status r.Analysis.status
    r.Analysis.degradation r.Analysis.normalized r.Analysis.bound
    r.Analysis.num_failed_links r.Analysis.scenario_prob r.Analysis.healthy_performance
    r.Analysis.failed_performance r.Analysis.nodes
