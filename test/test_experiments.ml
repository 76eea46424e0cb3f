(* Integration tests over the experiment harness: full-system runs with
   millisecond-scale measurement windows. These assert the qualitative
   results of the paper — who wins, that profiles are conserved, that the
   datapath is loss- and corruption-free — rather than exact numbers. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* Tiny but long-enough-to-stabilize windows keep the suite fast. *)
let tiny cfg =
  {
    cfg with
    Experiments.Config.warmup = Sim.Time.ms 20;
    duration = Sim.Time.ms 40;
  }

let cdna_tx =
  tiny
    {
      Experiments.Config.default with
      Experiments.Config.system = Experiments.Config.Cdna_sys;
      pattern = Workload.Pattern.Tx;
    }

let xen_tx =
  tiny
    {
      cdna_tx with
      Experiments.Config.system = Experiments.Config.Xen_sw;
      nic = Experiments.Config.Intel;
    }

let profile_sum (p : Host.Profile.report) =
  p.Host.Profile.hyp +. p.Host.Profile.driver_kernel
  +. p.Host.Profile.driver_user +. p.Host.Profile.guest_kernel
  +. p.Host.Profile.guest_user +. p.Host.Profile.idle

let test_cdna_tx_saturates () =
  let m = Experiments.Run.run cdna_tx in
  check_bool
    (Printf.sprintf "near line rate (%.0f)" m.Experiments.Run.tx_mbps)
    true
    (m.Experiments.Run.tx_mbps > 1800.);
  check_bool "substantial idle" true
    (m.Experiments.Run.profile.Host.Profile.idle > 30.);
  check_int "no faults" 0 m.Experiments.Run.faults;
  check_int "no drops" 0 m.Experiments.Run.rx_drops

let test_cdna_beats_xen_tx () =
  let c = Experiments.Run.run cdna_tx in
  let x = Experiments.Run.run xen_tx in
  check_bool "higher throughput" true
    (c.Experiments.Run.tx_mbps > x.Experiments.Run.tx_mbps);
  check_bool "more idle" true
    (c.Experiments.Run.profile.Host.Profile.idle
    > x.Experiments.Run.profile.Host.Profile.idle);
  (* In Xen the driver domain burns CPU; in CDNA it does essentially
     nothing (the central claim of the paper). *)
  check_bool "xen driver domain busy" true
    (x.Experiments.Run.profile.Host.Profile.driver_kernel > 20.);
  check_bool "cdna driver domain idle" true
    (c.Experiments.Run.profile.Host.Profile.driver_kernel < 1.)

let test_cdna_beats_xen_rx () =
  let c =
    Experiments.Run.run { cdna_tx with Experiments.Config.pattern = Workload.Pattern.Rx }
  in
  let x =
    Experiments.Run.run { xen_tx with Experiments.Config.pattern = Workload.Pattern.Rx }
  in
  check_bool "higher rx throughput" true
    (c.Experiments.Run.rx_mbps > x.Experiments.Run.rx_mbps);
  (* The paper's receive gap is even larger than transmit. *)
  check_bool "receive gap substantial" true
    (c.Experiments.Run.rx_mbps /. x.Experiments.Run.rx_mbps > 1.3)

let test_profiles_conserved () =
  List.iter
    (fun cfg ->
      let m = Experiments.Run.run cfg in
      let s = profile_sum m.Experiments.Run.profile in
      check_bool
        (Printf.sprintf "profile sums to 100 (%s: %.1f)"
           (Experiments.Config.describe cfg) s)
        true
        (Float.abs (s -. 100.) < 1.0))
    [ cdna_tx; xen_tx ]

let test_protection_off_frees_hypervisor_time () =
  let on = Experiments.Run.run cdna_tx in
  let off =
    Experiments.Run.run
      { cdna_tx with Experiments.Config.protection = Cdna.Cdna_costs.Disabled }
  in
  check_bool "same throughput" true
    (Float.abs (on.Experiments.Run.tx_mbps -. off.Experiments.Run.tx_mbps) < 50.);
  check_bool "hypervisor time collapses" true
    (off.Experiments.Run.profile.Host.Profile.hyp
    < on.Experiments.Run.profile.Host.Profile.hyp /. 2.);
  check_bool "idle grows" true
    (off.Experiments.Run.profile.Host.Profile.idle
    > on.Experiments.Run.profile.Host.Profile.idle)

let test_iommu_between_bounds () =
  let full = Experiments.Run.run cdna_tx in
  let iommu =
    Experiments.Run.run
      { cdna_tx with Experiments.Config.protection = Cdna.Cdna_costs.Iommu }
  in
  let off =
    Experiments.Run.run
      { cdna_tx with Experiments.Config.protection = Cdna.Cdna_costs.Disabled }
  in
  let h m = m.Experiments.Run.profile.Host.Profile.hyp in
  check_bool "iommu cheaper than full" true (h iommu < h full);
  check_bool "iommu dearer than nothing" true (h iommu > h off)

let test_xen_scales_down_cdna_does_not () =
  let at guests cfg = { cfg with Experiments.Config.guests } in
  let c1 = Experiments.Run.run (at 1 cdna_tx) in
  let c8 = Experiments.Run.run (at 8 cdna_tx) in
  let x1 = Experiments.Run.run (at 1 xen_tx) in
  let x8 = Experiments.Run.run (at 8 xen_tx) in
  check_bool "cdna flat" true
    (Float.abs (c8.Experiments.Run.tx_mbps -. c1.Experiments.Run.tx_mbps)
     /. c1.Experiments.Run.tx_mbps
    < 0.05);
  check_bool "xen declines" true
    (x8.Experiments.Run.tx_mbps < x1.Experiments.Run.tx_mbps *. 0.9);
  check_bool "cdna idle shrinks" true
    (c8.Experiments.Run.profile.Host.Profile.idle
    < c1.Experiments.Run.profile.Host.Profile.idle)

let test_end_to_end_integrity_materialized () =
  (* Every payload byte crosses the simulated DMA engine and is verified
     at the consumer, on all three systems. *)
  List.iter
    (fun cfg ->
      let cfg =
        {
          cfg with
          Experiments.Config.materialize = true;
          warmup = Sim.Time.ms 5;
          duration = Sim.Time.ms 15;
        }
      in
      let m = Experiments.Run.run cfg in
      check_int
        (Printf.sprintf "no corruption (%s)" (Experiments.Config.describe cfg))
        0 m.Experiments.Run.integrity_failures;
      check_bool "and data flowed" true (Experiments.Run.primary_mbps m > 100.))
    [
      cdna_tx;
      xen_tx;
      { cdna_tx with Experiments.Config.pattern = Workload.Pattern.Rx };
      {
        cdna_tx with
        Experiments.Config.system = Experiments.Config.Native;
        nic = Experiments.Config.Intel;
      };
    ]

let test_bidirectional () =
  let m =
    Experiments.Run.run
      { cdna_tx with Experiments.Config.pattern = Workload.Pattern.Bidirectional }
  in
  check_bool "tx flows" true (m.Experiments.Run.tx_mbps > 500.);
  check_bool "rx flows" true (m.Experiments.Run.rx_mbps > 500.)

let test_native_outperforms_virtualized () =
  let native =
    Experiments.Run.run
      {
        xen_tx with
        Experiments.Config.system = Experiments.Config.Native;
        nics = 6;
      }
  in
  let xen = Experiments.Run.run { xen_tx with Experiments.Config.nics = 6 } in
  check_bool "native much faster" true
    (native.Experiments.Run.tx_mbps > 2. *. xen.Experiments.Run.tx_mbps)

let test_determinism () =
  let a = Experiments.Run.run cdna_tx in
  let b = Experiments.Run.run cdna_tx in
  check (Alcotest.float 0.0001) "identical runs" a.Experiments.Run.tx_mbps
    b.Experiments.Run.tx_mbps;
  check_int "identical event counts" a.Experiments.Run.events_fired
    b.Experiments.Run.events_fired

(* The observability layer must be as deterministic as the simulation:
   the same seeded run recorded twice yields byte-identical Chrome JSON
   and metrics JSON, and both parse with our own JSON parser. *)
let traced_run cfg =
  let r = Sim.Trace.Recorder.create () in
  Sim.Trace.set_sink (Some (Sim.Trace.Recorder.sink r));
  let _, tb = Experiments.Run.run_tb cfg in
  Sim.Trace.set_sink None;
  Sim.Trace.Recorder.set_process_name r ~pid:0 "hypervisor";
  List.iter
    (fun d ->
      Sim.Trace.Recorder.set_process_name r
        ~pid:(Xen.Domain.id d + 1)
        (Xen.Domain.name d))
    (Xen.Hypervisor.domains tb.Experiments.Testbed.xen);
  ( Sim.Trace.Recorder.to_chrome_string r,
    Sim.Metrics.to_string tb.Experiments.Testbed.metrics )

let traced_cfg =
  {
    cdna_tx with
    Experiments.Config.warmup = Sim.Time.ms 2;
    duration = Sim.Time.ms 5;
    seed = 1234;
  }

let test_trace_byte_identical () =
  let trace1, metrics1 = traced_run traced_cfg in
  let trace2, metrics2 = traced_run traced_cfg in
  check_bool "trace byte-identical" true (String.equal trace1 trace2);
  check_bool "metrics byte-identical" true (String.equal metrics1 metrics2)

let test_trace_covers_subsystems () =
  let trace, metrics = traced_run traced_cfg in
  (match Sim.Json.parse trace with
  | Error e -> Alcotest.failf "trace not valid JSON: %s" e
  | Ok j -> (
      match Sim.Json.member "traceEvents" j with
      | Some (Sim.Json.List evs) ->
          check_bool "has events" true (List.length evs > 0);
          let cats =
            List.filter_map
              (fun ev ->
                match Sim.Json.member "cat" ev with
                | Some (Sim.Json.String c) -> Some c
                | _ -> None)
              evs
          in
          List.iter
            (fun want ->
              check_bool ("category " ^ want) true (List.mem want cats))
            [ "sched"; "hypercall"; "dma"; "irq" ]
      | _ -> Alcotest.fail "traceEvents missing"));
  match Sim.Json.parse metrics with
  | Error e -> Alcotest.failf "metrics not valid JSON: %s" e
  | Ok (Sim.Json.Obj fields) ->
      check_bool "metrics non-empty" true (List.length fields > 0);
      (* Per-domain and per-NIC-context series must both be present. *)
      check_bool "per-domain series" true
        (List.exists (fun (k, _) ->
             String.starts_with ~prefix:"cpu.entity." k) fields);
      check_bool "per-ctx series" true
        (List.exists (fun (k, _) ->
             String.starts_with ~prefix:"cdna.ctx." k) fields)
  | Ok _ -> Alcotest.fail "metrics JSON is not an object"

let test_report_rendering () =
  let table =
    Experiments.Report.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  check_bool "has separator" true (String.length table > 0);
  check Alcotest.string "csv"
    "a,bb\n1,2\n"
    (Experiments.Report.csv ~header:[ "a"; "bb" ] [ [ "1"; "2" ] ]);
  check Alcotest.string "rate commas" "13,659" (Experiments.Report.rate 13659.);
  check Alcotest.string "pct" "51.0%" (Experiments.Report.pct 51.0)

let test_latency_measured () =
  let c = Experiments.Run.run cdna_tx in
  let x = Experiments.Run.run xen_tx in
  check_bool "latency measured" true (c.Experiments.Run.latency_p50_us > 0.);
  check_bool "p99 >= p50" true
    (c.Experiments.Run.latency_p99_us >= c.Experiments.Run.latency_p50_us);
  (* CDNA removes the driver-domain hop from every packet. *)
  check_bool "cdna lower latency" true
    (c.Experiments.Run.latency_p50_us < x.Experiments.Run.latency_p50_us)

let test_fairness_across_connections () =
  (* The benchmark balances bandwidth across connections (paper 5.1). *)
  List.iter
    (fun cfg ->
      let m = Experiments.Run.run cfg in
      check_bool
        (Printf.sprintf "Jain index near 1 (%s: %.3f)"
           (Experiments.Config.describe cfg)
           m.Experiments.Run.fairness)
        true
        (m.Experiments.Run.fairness > 0.95))
    [
      { cdna_tx with Experiments.Config.guests = 4 };
      { xen_tx with Experiments.Config.guests = 4 };
      {
        cdna_tx with
        Experiments.Config.guests = 2;
        pattern = Workload.Pattern.Rx;
      };
    ]

let test_seed_changes_timing_not_outcome () =
  (* Different seeds jitter event timing (different event counts) but the
     physics stays put (throughput within a percent). *)
  let a = Experiments.Run.run cdna_tx in
  let b = Experiments.Run.run { cdna_tx with Experiments.Config.seed = 1234 } in
  check_bool "different microtiming" true
    (a.Experiments.Run.events_fired <> b.Experiments.Run.events_fired);
  check_bool "same macro behaviour" true
    (Float.abs (a.Experiments.Run.tx_mbps -. b.Experiments.Run.tx_mbps)
     /. a.Experiments.Run.tx_mbps
    < 0.02)

let test_tso_amortizes_cpu () =
  (* With TSO super-frames, the same goodput costs less CPU (or more
     goodput at the same CPU) — the paper's section 6 observation about
     software-only transmit optimization, composed with CDNA. *)
  let base =
    {
      cdna_tx with
      Experiments.Config.nics = 6;
      warmup = Sim.Time.ms 15;
      duration = Sim.Time.ms 30;
    }
  in
  let plain = Experiments.Run.run base in
  let tso =
    Experiments.Run.run { base with Experiments.Config.gso_segments = 8 }
  in
  check_bool "throughput at least as high" true
    (tso.Experiments.Run.tx_mbps >= plain.Experiments.Run.tx_mbps *. 0.98);
  check_bool "idle much higher" true
    (tso.Experiments.Run.profile.Host.Profile.idle
    > plain.Experiments.Run.profile.Host.Profile.idle +. 20.)

let prop_random_configs_conserve =
  QCheck.Test.make ~name:"random configs: profile conserved, no corruption"
    ~count:8
    QCheck.(
      quad (int_range 0 2) (int_range 1 3) (int_range 0 2) (int_range 8 64))
    (fun (sys_sel, guests, pat_sel, window) ->
      let system =
        match sys_sel with
        | 0 -> Experiments.Config.Native
        | 1 -> Experiments.Config.Xen_sw
        | _ -> Experiments.Config.Cdna_sys
      in
      let pattern =
        match pat_sel with
        | 0 -> Workload.Pattern.Tx
        | 1 -> Workload.Pattern.Rx
        | _ -> Workload.Pattern.Bidirectional
      in
      let cfg =
        {
          Experiments.Config.default with
          Experiments.Config.system;
          nic =
            (if system = Experiments.Config.Cdna_sys then
               Experiments.Config.Ricenic
             else Experiments.Config.Intel);
          guests = (if system = Experiments.Config.Native then 1 else guests);
          pattern;
          window;
          materialize = true;
          warmup = Sim.Time.ms 5;
          duration = Sim.Time.ms 10;
        }
      in
      let m = Experiments.Run.run cfg in
      let s = profile_sum m.Experiments.Run.profile in
      Float.abs (s -. 100.) < 1.0
      && m.Experiments.Run.integrity_failures = 0
      && m.Experiments.Run.faults = 0
      && Experiments.Run.primary_mbps m > 0.)

let qcheck = QCheck_alcotest.to_alcotest

let test_stress_bidirectional_materialized () =
  (* Everything at once: 8 guests, both directions, real payload bytes
     verified end to end, on both systems. *)
  List.iter
    (fun system ->
      let m =
        Experiments.Run.run
          {
            Experiments.Config.default with
            Experiments.Config.system;
            nic =
              (if system = Experiments.Config.Cdna_sys then
                 Experiments.Config.Ricenic
               else Experiments.Config.Intel);
            guests = 8;
            pattern = Workload.Pattern.Bidirectional;
            materialize = true;
            warmup = Sim.Time.ms 8;
            duration = Sim.Time.ms 15;
          }
      in
      check_int "no corruption" 0 m.Experiments.Run.integrity_failures;
      check_int "no faults" 0 m.Experiments.Run.faults;
      check_bool "both directions flowed" true
        (m.Experiments.Run.tx_mbps > 50. && m.Experiments.Run.rx_mbps > 50.))
    [ Experiments.Config.Cdna_sys; Experiments.Config.Xen_sw ]

let test_loss_recovery_engages_under_overload () =
  (* The Figure 4 mechanism: at high guest counts the Xen receive path
     overloads, the Intel NIC's buffer drops packets, and the peers'
     go-back-N machinery retransmits. Guard that this actually happens
     (if it silently stopped, Figure 4 would flatten). *)
  let cfg =
    {
      xen_tx with
      Experiments.Config.guests = 16;
      pattern = Workload.Pattern.Rx;
    }
  in
  let tb = Experiments.Testbed.build cfg in
  tb.Experiments.Testbed.start ();
  Sim.Engine.run tb.Experiments.Testbed.engine ~until:(Sim.Time.ms 80);
  let drops =
    List.fold_left
      (fun a (s : Nic.Dp.stats) -> a + s.Nic.Dp.rx_overflow_drops)
      0
      (tb.Experiments.Testbed.nic_stats ())
  in
  let retx =
    List.fold_left
      (fun a p -> a + Experiments.Peer.retransmissions p)
      0 tb.Experiments.Testbed.peers
  in
  check_bool (Printf.sprintf "drops occurred (%d)" drops) true (drops > 0);
  check_bool (Printf.sprintf "retransmissions occurred (%d)" retx) true (retx > 0);
  (* And the system still made useful progress. *)
  let received =
    List.fold_left
      (fun a c -> a + Workload.Connection.received c)
      0 tb.Experiments.Testbed.conns_rx
  in
  check_bool "goodput continued" true (received > 1000)

let test_payload_sweep_shape () =
  (* At small packets both systems are per-packet-CPU-bound and CDNA's
     cheaper path moves substantially more of them. *)
  let small cfg = { cfg with Experiments.Config.payload = 256 } in
  let c = Experiments.Run.run (small cdna_tx) in
  let x = Experiments.Run.run (small xen_tx) in
  check_bool "both CPU-bound" true
    (c.Experiments.Run.profile.Host.Profile.idle < 5.
    && x.Experiments.Run.profile.Host.Profile.idle < 5.);
  check_bool "cdna moves much more" true
    (c.Experiments.Run.tx_mbps > 1.8 *. x.Experiments.Run.tx_mbps)

let test_testbed_oversubscribes_contexts () =
  (* More guests than hardware contexts used to be a hard build error;
     with hypervisor context paging the testbed enables oversubscription
     instead. Every guest still gets a working handle, and at least one
     assignment must have evicted a resident context. *)
  let tb =
    Experiments.Testbed.build { cdna_tx with Experiments.Config.guests = 33 }
  in
  let hyp = Option.get tb.Experiments.Testbed.cdna_hyp in
  check_bool "paging enabled" true (Cdna.Hyp.paging_enabled hyp);
  check_int "one handle per guest per nic" (33 * 2)
    (List.length tb.Experiments.Testbed.cdna_handles);
  check_bool "assignments paged contexts out" true (Cdna.Hyp.ctx_swaps hyp > 0);
  (* At exactly the context limit nothing is paged and paging stays off. *)
  let tb32 =
    Experiments.Testbed.build { cdna_tx with Experiments.Config.guests = 32 }
  in
  let hyp32 = Option.get tb32.Experiments.Testbed.cdna_hyp in
  check_bool "no paging at capacity" false (Cdna.Hyp.paging_enabled hyp32);
  check_int "no swaps at capacity" 0 (Cdna.Hyp.ctx_swaps hyp32)

(* The cdna-tx-64g testbed (64 guests, two NICs) declares 729,088 pages,
   ~3 GB. Simulated memory must cost what the run touches: a flat
   backing store or boxed per-page records would blow well past this
   bound on the major heap. *)
let test_testbed_heap_footprint () =
  Gc.full_major ();
  let tb =
    Experiments.Testbed.build
      {
        cdna_tx with
        Experiments.Config.nic = Experiments.Config.Ricenic;
        nics = 2;
        guests = 2 * Cdna.Cnic.num_contexts;
      }
  in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  ignore (Sys.opaque_identity tb);
  check_bool
    (Printf.sprintf "major heap %.0f MB after building 64 guests" heap_mb)
    true (heap_mb < 64.)

let test_run_ctx_swaps () =
  (* [Run] counts CDNA context swaps over the measurement window only:
     paging at 40 guests swaps throughout, but the swaps made while
     assigning contexts and warming up stay out of the reading. *)
  let run cfg guests =
    Experiments.Run.run_tb ~quick:true
      (cfg { Experiments.Config.default with Experiments.Config.guests })
  in
  let m, tb = run Experiments.Config.cdna_ricenic 40 in
  let total = Cdna.Hyp.ctx_swaps (Option.get tb.Experiments.Testbed.cdna_hyp) in
  let swaps = m.Experiments.Run.ctx_swaps in
  check_bool (Printf.sprintf "window swaps (%d) > 0" swaps) true (swaps > 0);
  check_bool
    (Printf.sprintf "window swaps (%d) < testbed total (%d)" swaps total)
    true (swaps < total);
  let xen, _ = run Experiments.Config.xen_intel 40 in
  check_int "xen never swaps" 0 xen.Experiments.Run.ctx_swaps;
  let cdna8, _ = run Experiments.Config.cdna_ricenic 8 in
  check_int "no swaps below 32 guests" 0 cdna8.Experiments.Run.ctx_swaps

let test_paper_claims_hold () =
  let verdicts = Experiments.Claims.verify ~quick:true () in
  List.iter
    (fun v ->
      check_bool
        (Printf.sprintf "%s: %s (%s)" v.Experiments.Claims.id
           v.Experiments.Claims.claim v.Experiments.Claims.measured)
        true v.Experiments.Claims.pass)
    verdicts

(* Golden fixtures: trace and metrics output for fixed seeds, captured
   before the hot-path optimizations landed. Any behavioral drift in the
   engine, memory, DMA, or payload layers shows up here as a byte diff.
   Regenerate (deliberately!) with: dune exec test/gen_golden.exe -- test/golden *)
let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden_artifacts () =
  List.iter
    (fun seed ->
      let trace, metrics = Golden.traced_artifacts ~seed in
      check_bool
        (Printf.sprintf "trace for seed %d matches golden fixture" seed)
        true
        (String.equal trace (read_file (Printf.sprintf "golden/trace_seed%d.json" seed)));
      check_bool
        (Printf.sprintf "metrics for seed %d matches golden fixture" seed)
        true
        (String.equal metrics
           (read_file (Printf.sprintf "golden/metrics_seed%d.json" seed))))
    Golden.seeds

(* ---------- Testbeds on concurrent OS domains ---------- *)

(* Dynamic witness for the static domain-safety pass (cdna_dom): two
   testbeds running at the same time on two spawned domains share no
   mutable state, so each produces exactly what it produces alone. Any
   module-level ledger, cache or trace sink reached from a testbed (a
   process-global grant-flip counter, for one) would couple the two
   runs and break byte-identity. *)
let small_cfg =
  {
    Experiments.Config.default with
    Experiments.Config.guests = 1;
    nics = 1;
    warmup = Sim.Time.us 500;
    duration = Sim.Time.ms 1;
  }

(* Everything observable about one run, plus its testbed. *)
let observe cfg =
  let m, tb = Experiments.Run.run_tb cfg in
  let out =
    Format.asprintf "%a@.%s" Experiments.Run.pp m
      (Sim.Metrics.to_string tb.Experiments.Testbed.metrics)
  in
  (out, Xen.Grant_table.flips tb.Experiments.Testbed.grant_table, tb)

let concurrent_matches_sequential ~flips_expected cfg () =
  let cfgs = List.init 2 (Experiments.Config.host cfg) in
  let sequential = List.map observe cfgs in
  let concurrent =
    List.map (fun c -> Domain.spawn (fun () -> observe c)) cfgs
    |> List.map Domain.join
  in
  List.iteri
    (fun i ((out, flips, _), (out', flips', _)) ->
      check Alcotest.string
        (Printf.sprintf "host %d: concurrent run byte-identical" i)
        out out';
      check_int (Printf.sprintf "host %d: flip ledger identical" i) flips flips';
      check_bool
        (Printf.sprintf "host %d: flips only under Xen" i)
        flips_expected (flips > 0))
    (List.combine sequential concurrent);
  (* Independence: clearing one testbed's ledger leaves the other's. *)
  match concurrent with
  | [ (_, _, tb0); (_, f1, tb1) ] ->
      let gnt (tb : Experiments.Testbed.t) =
        tb.Experiments.Testbed.grant_table
      in
      Xen.Grant_table.reset_flips (gnt tb0);
      check_int "host 0 ledger cleared" 0 (Xen.Grant_table.flips (gnt tb0));
      check_int "host 1 ledger untouched by host 0 reset" f1
        (Xen.Grant_table.flips (gnt tb1))
  | _ -> Alcotest.fail "expected two testbeds"

let xen_small =
  {
    small_cfg with
    Experiments.Config.system = Experiments.Config.Xen_sw;
    seed = 4242;
  }

(* Four per-CPU credit runqueues and three guests, each holding a CDNA
   context. *)
let cdna_smp =
  {
    small_cfg with
    Experiments.Config.system = Experiments.Config.Cdna_sys;
    cpus = 4;
    guests = 3;
    conns_per_guest_per_nic = 1;
    seed = 99;
  }

let suite =
  [
    ( "experiments.single_guest",
      [
        Alcotest.test_case "cdna saturates" `Slow test_cdna_tx_saturates;
        Alcotest.test_case "cdna beats xen tx" `Slow test_cdna_beats_xen_tx;
        Alcotest.test_case "cdna beats xen rx" `Slow test_cdna_beats_xen_rx;
        Alcotest.test_case "profiles conserved" `Slow test_profiles_conserved;
      ] );
    ( "experiments.protection",
      [
        Alcotest.test_case "disabling frees hyp time" `Slow
          test_protection_off_frees_hypervisor_time;
        Alcotest.test_case "iommu between bounds" `Slow test_iommu_between_bounds;
      ] );
    ( "experiments.scaling",
      [ Alcotest.test_case "xen declines, cdna flat" `Slow test_xen_scales_down_cdna_does_not ] );
    ( "experiments.observability",
      [
        Alcotest.test_case "trace byte-identical" `Slow test_trace_byte_identical;
        Alcotest.test_case "golden artifacts" `Slow test_golden_artifacts;
        Alcotest.test_case "trace covers subsystems" `Slow
          test_trace_covers_subsystems;
      ] );
    ( "experiments.integrity",
      [
        Alcotest.test_case "end-to-end materialized" `Slow
          test_end_to_end_integrity_materialized;
        Alcotest.test_case "bidirectional" `Slow test_bidirectional;
        Alcotest.test_case "latency measured" `Slow test_latency_measured;
        Alcotest.test_case "tso amortizes cpu" `Slow test_tso_amortizes_cpu;
        Alcotest.test_case "fairness" `Slow test_fairness_across_connections;
        Alcotest.test_case "seed jitter" `Slow test_seed_changes_timing_not_outcome;
        Alcotest.test_case "stress bidir materialized" `Slow
          test_stress_bidirectional_materialized;
        Alcotest.test_case "paper claims hold" `Slow test_paper_claims_hold;
        Alcotest.test_case "loss recovery engages" `Slow
          test_loss_recovery_engages_under_overload;
        Alcotest.test_case "payload sweep shape" `Slow test_payload_sweep_shape;
        Alcotest.test_case "testbed context oversubscription" `Quick
          test_testbed_oversubscribes_contexts;
        Alcotest.test_case "testbed heap footprint" `Quick
          test_testbed_heap_footprint;
        Alcotest.test_case "run counts window ctx swaps" `Slow test_run_ctx_swaps;
        Alcotest.test_case "native baseline" `Slow test_native_outperforms_virtualized;
      ] );
    ( "experiments.harness",
      [
        Alcotest.test_case "determinism" `Slow test_determinism;
        Alcotest.test_case "report rendering" `Quick test_report_rendering;
        qcheck prop_random_configs_conserve;
      ] );
    ( "experiments.domains",
      [
        Alcotest.test_case "concurrent xen testbeds" `Quick
          (concurrent_matches_sequential ~flips_expected:true xen_small);
        Alcotest.test_case "concurrent smp cdna testbeds" `Quick
          (concurrent_matches_sequential ~flips_expected:false cdna_smp);
      ] );
  ]
