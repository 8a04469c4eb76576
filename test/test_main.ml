let () =
  (* the per-pass static verifier is on for the whole suite: every
     compile in every test doubles as a checker smoke test *)
  Edge_check.Check.set_enabled true;
  Alcotest.run "dataflow_predication"
    [
      ("isa", Test_isa.tests);
      ("ir", Test_ir.tests);
      ("lang", Test_lang.tests);
      ("compiler", Test_compiler.tests);
      ("sim", Test_sim.tests);
      ("machine", Test_machine.tests);
      ("passes", Test_passes.tests);
      ("psi", Test_psi.tests);
      ("workloads", Test_workloads.tests);
      ("harness", Test_harness.tests);
      ("parallel", Test_parallel.tests);
      ("serve", Test_serve.tests);
      ("diff", Test_diff.tests);
      ("fuzz", Test_fuzz.tests);
      ("obs", Test_obs.tests);
      ("check", Test_check.tests);
      ("jit", Test_jit.tests);
    ]
