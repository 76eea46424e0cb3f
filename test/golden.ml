(* Shared definition of the golden determinism runs: the exact configs
   and the artifact pipeline (trace recorder -> Chrome JSON, metrics
   registry -> JSON) that both the fixture generator (gen_golden.ml) and
   the golden test (test_experiments.ml) use. Keeping it in one place
   guarantees the test compares like with like. *)

let seeds = [ 1234; 77 ]

let cfg ~seed =
  {
    Experiments.Config.default with
    Experiments.Config.system = Experiments.Config.Cdna_sys;
    nic = Experiments.Config.Ricenic;
    pattern = Workload.Pattern.Tx;
    guests = 2;
    nics = 2;
    warmup = Sim.Time.ms 1;
    duration = Sim.Time.ms 2;
    seed;
  }

(* The artifacts `cdna_sim run --trace-out --metrics-out` writes for
   [cfg]: the recorded trace as Chrome JSON and the metrics registry. *)
let traced_artifacts cfg =
  let _, tb, r = Experiments.Run.run_traced cfg in
  ( Sim.Trace.Recorder.to_chrome_string r,
    Sim.Metrics.to_string tb.Experiments.Testbed.metrics )
