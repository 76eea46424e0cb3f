type measurement = {
  config : Config.t;
  tx_mbps : float;
  rx_mbps : float;
  profile : Host.Profile.report;
  driver_virq_per_sec : float;
  guest_virq_per_sec : float;
  phys_irq_per_sec : float;
  rx_drops : int;
  faults : int;
  integrity_failures : int;
  latency_p50_us : float;
  latency_p99_us : float;
  fairness : float;
  ctx_swaps : int;
  events_fired : int;
}

let primary_mbps m =
  match m.config.Config.pattern with
  | Workload.Pattern.Tx -> m.tx_mbps
  | Workload.Pattern.Rx -> m.rx_mbps
  | Workload.Pattern.Bidirectional -> m.tx_mbps +. m.rx_mbps

(* The paper reports application-level (TCP payload) throughput; our
   frames carry 1500 bytes of IP payload, of which 52 are TCP/IP
   headers. *)
let l3_header_bytes = 52

let sum_received conns =
  List.fold_left (fun acc c -> acc + Workload.Connection.received c) 0 conns

let sum_integrity conns =
  List.fold_left
    (fun acc c -> acc + Workload.Connection.integrity_failures c)
    0 conns

(* Aggregate a latency percentile across connections, weighted by simply
   pooling the histograms' percentile of percentiles (the per-connection
   distributions are near-identical by symmetry). *)
let latency_percentile conns p =
  let samples =
    List.filter_map
      (fun c ->
        let h = Workload.Connection.latency c in
        if Sim.Stats.Histogram.count h = 0 then None
        else Some (float_of_int (Sim.Stats.Histogram.percentile h p)))
      conns
  in
  match samples with
  | [] -> 0.
  | _ ->
      List.fold_left ( +. ) 0. samples
      /. float_of_int (List.length samples)
      /. 1e3 (* ns -> us *)

(* Jain's index: (sum x)^2 / (n * sum x^2); 1.0 when all equal. *)
let jain_fairness conns =
  let xs =
    List.map (fun c -> float_of_int (Workload.Connection.received c)) conns
  in
  match xs with
  | [] -> 1.
  | _ ->
      let n = float_of_int (List.length xs) in
      let s = List.fold_left ( +. ) 0. xs in
      let s2 = List.fold_left (fun a x -> a +. (x *. x)) 0. xs in
      if s2 = 0. then 1. else s *. s /. (n *. s2)

let apply_quick ~quick (cfg : Config.t) =
  if quick then
    {
      cfg with
      Config.warmup = Sim.Time.div_int cfg.Config.warmup 2;
      duration = Sim.Time.div_int cfg.Config.duration 4;
    }
  else cfg

type baselines = {
  drops0 : int;
  faults0 : int;
  irqs0 : int;
  swaps0 : int;
  events0 : int;
}

(* Counters come from the testbed's metrics registry, summed over labels;
   a series that is not registered (e.g. [cdna.ctx_swaps] without
   paging) reads 0. *)
let counter (tb : Testbed.t) name = Sim.Metrics.sum tb.Testbed.metrics name

(* Bare metal has no hypervisor to count interrupts; its NIC lines do. *)
let phys_irqs_series (cfg : Config.t) =
  match cfg.Config.system with
  | Config.Native -> "native.phys_irqs"
  | Config.Xen_sw | Config.Cdna_sys -> "xen.phys_irqs"

(* End of warm-up: zero every counter the measurement reads. The engine
   must stand exactly at [cfg.warmup]. *)
let reset_after_warmup (cfg : Config.t) (tb : Testbed.t) =
  Host.Profile.reset ~now:cfg.Config.warmup tb.Testbed.profile;
  List.iter Xen.Domain.reset_virq_count (Xen.Hypervisor.domains tb.Testbed.xen);
  List.iter Workload.Connection.reset_counters tb.Testbed.conns_tx;
  List.iter Workload.Connection.reset_counters tb.Testbed.conns_rx;
  Xen.Hypervisor.reset_counters tb.Testbed.xen;
  {
    drops0 = counter tb "nic.rx_overflow_drops";
    faults0 = counter tb "nic.faults";
    irqs0 = counter tb (phys_irqs_series cfg);
    swaps0 = counter tb "cdna.ctx_swaps";
    events0 = counter tb "engine.fired";
  }

let collect (cfg : Config.t) (tb : Testbed.t) (b : baselines) =
  let { drops0; faults0; irqs0; swaps0; events0 } = b in
  let secs = Sim.Time.to_sec_f cfg.Config.duration in
  let goodput_per_pkt = max 1 (cfg.Config.payload - l3_header_bytes) in
  let mbps conns =
    float_of_int (sum_received conns * goodput_per_pkt * 8) /. secs /. 1e6
  in
  let profile =
    Host.Profile.report tb.Testbed.profile ~window:cfg.Config.duration
      ~driver_domain:
        (Option.map Xen.Domain.id tb.Testbed.driver_dom)
  in
  let driver_virq =
    match tb.Testbed.driver_dom with
    | Some d -> float_of_int (Xen.Domain.virq_count d) /. secs
    | None -> 0.
  in
  let guest_virq =
    List.fold_left
      (fun acc d -> acc +. float_of_int (Xen.Domain.virq_count d))
      0. tb.Testbed.guest_doms
    /. secs
  in
  let phys_irq =
    float_of_int (counter tb (phys_irqs_series cfg) - irqs0) /. secs
  in
  let measured_conns =
    match cfg.Config.pattern with
    | Workload.Pattern.Tx -> tb.Testbed.conns_tx
    | Workload.Pattern.Rx -> tb.Testbed.conns_rx
    | Workload.Pattern.Bidirectional ->
        tb.Testbed.conns_tx @ tb.Testbed.conns_rx
  in
  {
    config = cfg;
    tx_mbps = mbps tb.Testbed.conns_tx;
    rx_mbps = mbps tb.Testbed.conns_rx;
    profile;
    driver_virq_per_sec = driver_virq;
    guest_virq_per_sec = guest_virq;
    phys_irq_per_sec = phys_irq;
    rx_drops = counter tb "nic.rx_overflow_drops" - drops0;
    faults = counter tb "nic.faults" - faults0;
    integrity_failures =
      sum_integrity tb.Testbed.conns_tx + sum_integrity tb.Testbed.conns_rx;
    latency_p50_us = latency_percentile measured_conns 50.;
    latency_p99_us = latency_percentile measured_conns 99.;
    fairness = jain_fairness measured_conns;
    ctx_swaps = counter tb "cdna.ctx_swaps" - swaps0;
    events_fired = counter tb "engine.fired" - events0;
  }

let run_tb ?(quick = false) (cfg : Config.t) =
  let cfg = apply_quick ~quick cfg in
  let tb = Testbed.build cfg in
  tb.Testbed.start ();
  Sim.Engine.run tb.Testbed.engine ~until:cfg.Config.warmup;
  let b = reset_after_warmup cfg tb in
  let stop = Sim.Time.add cfg.Config.warmup cfg.Config.duration in
  Sim.Engine.run tb.Testbed.engine ~until:stop;
  (collect cfg tb b, tb)

let run ?quick cfg = fst (run_tb ?quick cfg)

let run_traced ?quick cfg =
  let r = Sim.Trace.Recorder.create () in
  Sim.Trace.set_sink (Some (Sim.Trace.Recorder.sink r));
  let m, tb = run_tb ?quick cfg in
  Sim.Trace.set_sink None;
  Sim.Trace.Recorder.set_process_name r ~pid:0 "hypervisor";
  List.iter
    (fun d ->
      Sim.Trace.Recorder.set_process_name r
        ~pid:(Xen.Domain.id d + 1)
        (Xen.Domain.name d))
    (Xen.Hypervisor.domains tb.Testbed.xen);
  (m, tb, r)

let pp ppf m =
  Format.fprintf ppf
    "%s: tx=%.0f Mb/s rx=%.0f Mb/s | %a | virq drv=%.0f/s guest=%.0f/s \
     phys=%.0f/s | latency p50=%.0fus p99=%.0fus"
    (Config.describe m.config) m.tx_mbps m.rx_mbps Host.Profile.pp_report
    m.profile m.driver_virq_per_sec m.guest_virq_per_sec m.phys_irq_per_sec
    m.latency_p50_us m.latency_p99_us
