let summary_header =
  "status,degradation,normalized,bound,failed_links,scenario_prob,healthy,failed,elapsed_s,nodes"

let summary_row (r : Analysis.report) =
  Format.asprintf "%a,%.9g,%.9g,%.9g,%d,%.6g,%.9g,%.9g,%.3f,%d"
    Milp.Solver.pp_status r.Analysis.status
    r.Analysis.degradation r.Analysis.normalized r.Analysis.bound
    r.Analysis.num_failed_links r.Analysis.scenario_prob r.Analysis.healthy_performance
    r.Analysis.failed_performance r.Analysis.elapsed r.Analysis.nodes

let pair_header = "src,dst,demand,healthy_flow,failed_flow,loss"

let pair_rows (r : Analysis.report) =
  List.map
    (fun ((src, dst), h, f) ->
      let d = Traffic.Demand.volume r.Analysis.worst_demand ~src ~dst in
      Printf.sprintf "%d,%d,%.9g,%.9g,%.9g,%.9g" src dst d h f (h -. f))
    r.Analysis.per_pair

let to_csv r =
  String.concat "\n"
    ((summary_header :: summary_row r :: "" :: pair_header :: pair_rows r) @ [ "" ])
