(* Shared definition of the golden determinism runs: the exact configs
   and the artifact pipeline (trace recorder -> Chrome JSON, metrics
   registry -> JSON) that both the fixture generator (gen_golden.ml) and
   the golden test (test_experiments.ml) use. Keeping it in one place
   guarantees the test compares like with like. *)

let window cfg =
  { cfg with Experiments.Config.warmup = Sim.Time.ms 1; duration = Sim.Time.ms 2 }

let cdna_tx ~seed =
  window
    {
      Experiments.Config.default with
      Experiments.Config.system = Experiments.Config.Cdna_sys;
      nic = Experiments.Config.Ricenic;
      pattern = Workload.Pattern.Tx;
      guests = 2;
      nics = 2;
      seed;
    }

(* The receive configs pin the event order of the ring-writing driver:
   in the Xen driver domain (behind netback and the bridge) and on bare
   metal. *)
let rx system =
  window
    {
      Experiments.Config.default with
      Experiments.Config.system;
      nic = Experiments.Config.Intel;
      pattern = Workload.Pattern.Rx;
      guests = 2;
      nics = 2;
      seed = 1234;
    }

(* Each run's fixtures are golden/trace_<tag>.json and
   golden/metrics_<tag>.json. *)
let runs =
  [
    ("seed1234", cdna_tx ~seed:1234);
    ("seed77", cdna_tx ~seed:77);
    ("xen_rx_seed1234", rx Experiments.Config.Xen_sw);
    ("native_rx_seed1234", rx Experiments.Config.Native);
  ]

(* The artifacts `cdna_sim run --trace-out --metrics-out` writes for
   [cfg]: the recorded trace as Chrome JSON and the metrics registry. *)
let traced_artifacts cfg =
  let _, tb, r = Experiments.Run.run_traced cfg in
  ( Sim.Trace.Recorder.to_chrome_string r,
    Sim.Metrics.to_string tb.Experiments.Testbed.metrics )
