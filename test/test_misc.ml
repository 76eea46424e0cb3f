(* Coverage for the smaller API surfaces: pretty-printers, accessors,
   tracing, and report plumbing not exercised by the behavioural suites. *)

(* The cost records these tests' expected values were measured with. *)
let xen_costs =
  {
    Xen.Costs.isr = Sim.Time.ns 1_500;
    virq_dispatch = Sim.Time.ns 800;
    event_notify = Sim.Time.ns 900;
    grant_map = Sim.Time.ns 550;
    grant_transfer = Sim.Time.ns 1_100;
    domain_create = Sim.Time.us 100;
  }

let netback_costs =
  {
    Guestos.Netback.per_pkt_tx = Sim.Time.ns 1_200;
    per_pkt_rx = Sim.Time.ns 1_800;
    bridge_per_pkt = Sim.Time.ns 600;
    wakeup_fixed = Sim.Time.us 2;
    per_ring_visit = Sim.Time.ns 700;
    tx_budget = 96;
    rx_budget = 96;
    rx_overflow_cap = 512;
  }

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

let test_time_order () =
  check_int "compare" (-1) (Sim.Time.compare 1 2);
  check_int "max" 2 (Sim.Time.max 1 2)

let test_trace_sink () =
  let lines = ref [] in
  Sim.Trace.set_sink
    (Some
       (fun ev ->
         lines := (ev.Sim.Trace.time, ev.Sim.Trace.tag, ev.Sim.Trace.name) :: !lines));
  check_bool "enabled" true (Sim.Trace.enabled ());
  Sim.Trace.emit ~time:(Sim.Time.us 3) ~tag:"test" (fun () -> "hello");
  Sim.Trace.set_sink None;
  check_bool "disabled" false (Sim.Trace.enabled ());
  (* Disabled emit does not run the thunk. *)
  Sim.Trace.emit ~time:0 ~tag:"test" (fun () -> Alcotest.fail "lazy!");
  check_bool "captured" true (!lines = [ (Sim.Time.us 3, "test", "hello") ])

let test_trace_in_datapath () =
  (* A quick CDNA run with tracing on produces datapath records. *)
  let count = ref 0 in
  Sim.Trace.set_sink (Some (fun _ev -> incr count));
  let cfg =
    {
      Experiments.Config.default with
      Experiments.Config.warmup = Sim.Time.ms 2;
      duration = Sim.Time.ms 3;
    }
  in
  ignore (Experiments.Run.run cfg);
  Sim.Trace.set_sink None;
  check_bool (Printf.sprintf "events traced (%d)" !count) true (!count > 100)

let test_mac_misc () =
  let m = Ethernet.Mac_addr.make 1 in
  check_bool "equal" true (Ethernet.Mac_addr.equal m (Ethernet.Mac_addr.make 1));
  check_bool "to_int48 tells addresses apart" true
    (Ethernet.Mac_addr.to_int48 m <> Ethernet.Mac_addr.to_int48 (Ethernet.Mac_addr.make 2))

let test_link_busy () =
  let engine = Sim.Engine.create () in
  let link = Ethernet.Link.create engine () in
  check_bool "idle" false (Ethernet.Link.busy link ~from:Ethernet.Link.A);
  Ethernet.Link.send link ~from:Ethernet.Link.A
    (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
       ~dst:(Ethernet.Mac_addr.make 2) ~kind:Ethernet.Frame.Data ~flow:0
       ~seq:0 ~payload_len:1500 ~payload_seed:0 ())
    ~on_wire_free:ignore;
  check_bool "busy while serializing" true
    (Ethernet.Link.busy link ~from:Ethernet.Link.A);
  check_int "rate accessor" 1_000_000_000 (Ethernet.Link.rate_bps link)

(* tiny substring helper to avoid a dependency *)
module Astring_like = struct
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec scan i =
      if i + nl > hl then false
      else if String.sub haystack i nl = needle then true
      else scan (i + 1)
    in
    scan 0
end

let test_nic_config_pp () =
  let s = Format.asprintf "%a" Nic.Nic_config.pp Nic.Nic_config.intel in
  check_bool "mentions name" true (Astring_like.contains s "Intel")

let test_nic_config_pp_fields () =
  let pp = Format.asprintf "%a" Nic.Nic_config.pp in
  check Alcotest.string "ricenic" "RiceNIC (seqno=false)"
    (pp Nic.Nic_config.ricenic);
  check Alcotest.string "intel" "Intel-Pro1000 (seqno=false)"
    (pp Nic.Nic_config.intel)

let test_category_pp () =
  check Alcotest.string "hyp" "hyp"
    (Format.asprintf "%a" Host.Category.pp Host.Category.Hypervisor);
  check Alcotest.string "kernel" "dom3/kernel"
    (Format.asprintf "%a" Host.Category.pp (Host.Category.Kernel 3));
  check Alcotest.string "idle" "idle"
    (Format.asprintf "%a" Host.Category.pp Host.Category.Idle)

(* One integer series of a registry's snapshot, by its full key. Unlike
   [Sim.Metrics.sum], a series that was never registered fails the test
   instead of reading 0. *)
let int_series m key =
  match List.assoc_opt key (Sim.Metrics.snapshot m) with
  | Some (Sim.Json.Int i) -> i
  | Some _ | None -> Alcotest.failf "no integer series %s" key

let test_cpu_entity_accessors () =
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let e = Host.Cpu.add_entity cpu ~name:"vcpu0" ~weight:256 ~domain:7 in
  let m = Sim.Metrics.create () in
  Host.Cpu.register_metrics cpu m;
  check Alcotest.string "name" "vcpu0" (Host.Cpu.name_of e);
  check_int "domain" 7 (Host.Cpu.domain_of e);
  check_int "runtime starts zero" 0
    (int_series m "cpu.entity.runtime_ns{domain=7,entity=vcpu0}")

let test_config_describe () =
  let d = Experiments.Config.describe Experiments.Config.default in
  check_bool "mentions system" true (Astring_like.contains d "CDNA");
  check_bool "mentions pattern" true (Astring_like.contains d "transmit")

let test_run_primary_bidir () =
  let m =
    Experiments.Run.run
      {
        Experiments.Config.default with
        Experiments.Config.pattern = Workload.Pattern.Bidirectional;
        warmup = Sim.Time.ms 5;
        duration = Sim.Time.ms 10;
      }
  in
  check (Alcotest.float 0.01) "primary = tx + rx"
    (m.Experiments.Run.tx_mbps +. m.Experiments.Run.rx_mbps)
    (Experiments.Run.primary_mbps m)

let test_pattern_pp () =
  check Alcotest.string "tx" "transmit"
    (Format.asprintf "%a" Workload.Pattern.pp Workload.Pattern.Tx)

let test_netback_counters () =
  (* Counters on a fresh netback. *)
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let mem = Memory.Phys_mem.create ~total_pages:16384 () in
  let hyp = Xen.Hypervisor.create engine ~cpu ~mem ~costs:xen_costs () in
  let dom =
    Xen.Hypervisor.create_domain hyp ~name:"drv" ~kind:Xen.Domain.Driver
      ~weight:256 ~mem_pages:8192
  in
  let nb =
    Guestos.Netback.create ~hyp ~gnt:(Xen.Grant_table.create hyp) ~dom
      ~costs:netback_costs ()
  in
  let m = Sim.Metrics.create () in
  Guestos.Netback.register_metrics nb m;
  check_int "tx" 0 (int_series m "netback.tx_forwarded");
  check_int "rx" 0 (int_series m "netback.rx_delivered");
  check_int "drops" 0 (int_series m "netback.rx_dropped");
  check_int "runs" 0 (int_series m "netback.runs");
  check_int "pool" 4096 (int_series m "netback.pool_size")

let test_dma_desc_pp () =
  let s =
    Format.asprintf "%a" Memory.Dma_desc.pp
      { Memory.Dma_desc.addr = 0x1000; len = 5; flags = 1; seqno = 2 }
  in
  check_bool "formats" true (Astring_like.contains s "0x1000")

let test_desc_layout_pp () =
  let s = Format.asprintf "%a" Memory.Desc_layout.pp Memory.Desc_layout.compact in
  check_bool "formats" true (Astring_like.contains s "size=12");
  check_bool "equal" true
    (Memory.Desc_layout.equal Memory.Desc_layout.compact Memory.Desc_layout.compact)

let test_ascii_chart () =
  let chart =
    Experiments.Report.ascii_chart ~x_label:"guests" ~y_label:"Mb/s"
      ~series:[ ("a", '#', [ 100.; 200.; 300. ]); ("b", 'o', [ 300.; 200.; 100. ]) ]
      ~xs:[ 1; 2; 3 ]
  in
  check_bool "has both markers" true
    (Astring_like.contains chart "#" && Astring_like.contains chart "o");
  check_bool "axis labels" true
    (Astring_like.contains chart "guests" && Astring_like.contains chart "Mb/s");
  check_bool "legend" true (Astring_like.contains chart "# = a")

let suite =
  [
    ( "misc.coverage",
      [
        Alcotest.test_case "time ordering" `Quick test_time_order;
        Alcotest.test_case "trace sink" `Quick test_trace_sink;
        Alcotest.test_case "trace in datapath" `Quick test_trace_in_datapath;
        Alcotest.test_case "mac misc" `Quick test_mac_misc;
        Alcotest.test_case "link busy" `Quick test_link_busy;
        Alcotest.test_case "nic_config pp" `Quick test_nic_config_pp;
        Alcotest.test_case "nic_config pp fields" `Quick
          test_nic_config_pp_fields;
        Alcotest.test_case "category pp" `Quick test_category_pp;
        Alcotest.test_case "cpu accessors" `Quick test_cpu_entity_accessors;
        Alcotest.test_case "config describe" `Quick test_config_describe;
        Alcotest.test_case "primary bidir" `Quick test_run_primary_bidir;
        Alcotest.test_case "pattern pp" `Quick test_pattern_pp;
        Alcotest.test_case "netback counters" `Quick test_netback_counters;
        Alcotest.test_case "dma_desc pp" `Quick test_dma_desc_pp;
        Alcotest.test_case "desc_layout pp" `Quick test_desc_layout_pp;
        Alcotest.test_case "ascii chart" `Quick test_ascii_chart;
      ] );
  ]
