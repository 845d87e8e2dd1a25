let () =
  Alcotest.run "rtcad"
    (Test_util.suite @ Test_bitset.suite @ Test_bdd.suite @ Test_stg.suite
   @ Test_sg.suite @ Test_symbolic.suite @ Test_rt.suite @ Test_synth.suite @ Test_netlist.suite
   @ Test_verify.suite @ Test_rappid.suite @ Test_flow.suite @ Test_hls.suite
   @ Test_structure.suite @ Test_bm.suite @ Test_check.suite @ Test_store.suite @ Test_incremental.suite
   @ Test_faults.suite
   @ Test_determinism.suite @ Test_par.suite @ Test_obs.suite @ Test_serve.suite
   @ Test_golden.suite)
