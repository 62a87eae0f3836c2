let () =
  Alcotest.run "hieropt"
    [
      ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("util-misc", Test_util_misc.suite);
      ("linalg", Test_linalg.suite);
      ("sparse", Test_sparse.suite);
      ("interp", Test_interp.suite);
      ("datafile", Test_datafile.suite);
      ("mosfet", Test_mosfet.suite);
      ("circuit", Test_circuit.suite);
      ("waveform", Test_waveform.suite);
      ("spice", Test_spice.suite);
      ("moo", Test_moo.suite);
      ("moo-extra", Test_moo_extra.suite);
      ("portfolio", Test_portfolio.suite);
      ("behave", Test_behave.suite);
      ("core", Test_core.suite);
      ("engine", Test_engine.suite);
      ("checkpoint", Test_checkpoint.suite);
      ("netlist", Test_netlist.suite);
      ("serve", Test_serve.suite);
      ("obs", Test_obs.suite);
      ("prof", Test_prof.suite);
    ]
