let () =
  Alcotest.run "raha"
    [
      ("milp", Test_milp.suite);
      ("presolve", Test_presolve.suite);
      ("wan", Test_wan.suite);
      ("netpath", Test_netpath.suite);
      ("failure", Test_failure.suite);
      ("te", Test_te.suite);
      ("raha", Test_raha.suite);
      ("raha tools", Test_raha_tools.suite);
      ("traffic", Test_traffic.suite);
      ("extensions", Test_extensions.suite);
      ("simplex diff", Test_simplex_diff.suite);
      ("revised simplex", Test_revised.suite);
      ("cuts", Test_cuts.suite);
      ("batch", Test_batch.suite);
      ("certify", Test_certify.suite);
      ("parallel", Test_parallel.suite);
      ("bb limits", Test_bb_limits.suite);
      ("branching", Test_branching.suite);
      ("service", Test_service.suite);
    ]
