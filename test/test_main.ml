let () =
  Alcotest.run "cdna"
    (Test_sim.suite @ Test_host.suite @ Test_memory.suite @ Test_bus.suite
   @ Test_ethernet.suite @ Test_nic.suite @ Test_xen.suite
   @ Test_guestos.suite @ Test_cdna.suite @ Test_workload.suite
   @ Test_openloop.suite @ Test_experiments.suite @ Test_misc.suite)
