let () =
  Alcotest.run "qac"
    [ ("sexp", Test_sexp.suite);
      ("ising", Test_ising.suite);
      ("cellgen", Test_cellgen.suite);
      ("cells", Test_cells.suite);
      ("netlist", Test_netlist.suite);
      ("verilog", Test_verilog.suite);
      ("verilog2", Test_verilog2.suite);
      ("edif", Test_edif.suite);
      ("qmasm", Test_qmasm.suite);
      ("chimera", Test_chimera.suite);
      ("embed", Test_embed.suite);
      ("anneal", Test_anneal.suite);
      ("state", Test_state.suite);
      ("bitpar", Test_bitpar.suite);
      ("roofdual", Test_roofdual.suite);
      ("csp", Test_csp.suite);
      ("pipeline", Test_pipeline.suite);
      ("pipeline2", Test_pipeline2.suite);
      ("misc", Test_misc.suite);
      ("diag", Test_diag.suite);
      ("trace", Test_trace.suite);
      ("parallel", Test_parallel.suite);
      ("tiler", Test_tiler.suite);
      ("store", Test_store.suite);
      ("serve", Test_serve.suite);
      ("hist", Test_hist.suite);
      ("protocol", Test_protocol.suite);
      ("shard", Test_shard.suite);
      ("sat", Test_sat.suite);
      ("verify", Test_verify.suite);
      ("golden", Test_golden.suite);
      ("fuzz", Test_fuzz.suite);
    ]
