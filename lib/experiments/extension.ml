(* The paper's pairing on one base configuration, Xen first. *)
let versus base = [ Config.xen_intel base; Config.cdna_ricenic base ]

let label ~cdna (m : Run.measurement) =
  match m.Run.config.Config.system with
  | Config.Cdna_sys -> cdna
  | Config.Native | Config.Xen_sw -> "Xen/Intel"

let idle (m : Run.measurement) = Report.pct m.Run.profile.Host.Profile.idle

(* An extension output: one text-table row per measurement, no CSV. *)
let table ?(footer = "") ~title ~header configs row =
  {
    Sweep.title;
    configs;
    header;
    rows = List.map row;
    footer = Fun.const footer;
    csv = None;
  }

let latency =
  table
    ~title:"Extension: end-to-end packet latency, transmit (not in the paper)"
    ~header:[ "System"; "Guests"; "Mb/s"; "p50 latency"; "p99 latency" ]
    (List.concat_map
       (fun guests -> versus { Config.default with Config.guests })
       [ 1; 4; 8 ])
    (fun m ->
      [
        label ~cdna:"CDNA" m;
        string_of_int m.Run.config.Config.guests;
        Report.mbps (Run.primary_mbps m);
        Printf.sprintf "%.0f us" m.Run.latency_p50_us;
        Printf.sprintf "%.0f us" m.Run.latency_p99_us;
      ])

let bidirectional =
  table
    ~title:
      "Extension: simultaneous transmit + receive, single guest (not in the \
       paper)"
    ~header:[ "System"; "Tx Mb/s"; "Rx Mb/s"; "Total"; "Idle" ]
    (versus
       { Config.default with Config.pattern = Workload.Pattern.Bidirectional })
    (fun m ->
      [
        label ~cdna:"CDNA/RiceNIC" m;
        Report.mbps m.Run.tx_mbps;
        Report.mbps m.Run.rx_mbps;
        Report.mbps (m.Run.tx_mbps +. m.Run.rx_mbps);
        idle m;
      ])

let driver_weight =
  let base =
    Config.xen_intel
      { Config.default with Config.guests = 16; pattern = Workload.Pattern.Rx }
  in
  table
    ~title:
      "Extension: driver-domain scheduler weight, Xen receive, 16 guests (not \
       in the paper)"
    ~header:[ "dom0 weight"; "Rx Mb/s"; "Drv-OS"; "Hyp"; "Drops" ]
    ~footer:
      "(Weight barely matters: netback is event-driven and blocks when idle,\n\
      \ so boost-on-wake already gives the driver domain the CPU it asks for\n\
      \ -- consistent with period reports that dom0 weighting did little for\n\
      \ I/O-bound loads. The bottleneck is per-packet work, not scheduling\n\
      \ share.)\n"
    (List.map
       (fun w -> { base with Config.driver_weight = w })
       [ 256; 512; 1024; 2048 ])
    (fun m ->
      [
        string_of_int m.Run.config.Config.driver_weight;
        Report.mbps m.Run.rx_mbps;
        Report.pct m.Run.profile.Host.Profile.driver_kernel;
        Report.pct m.Run.profile.Host.Profile.hyp;
        string_of_int m.Run.rx_drops;
      ])

let payload_sweep =
  table
    ~title:
      "Extension: transmit throughput vs packet size, single guest (not in \
       the paper)"
    ~header:[ "System"; "Payload B"; "Goodput Mb/s"; "kpkt/s"; "Idle" ]
    (List.concat_map
       (fun payload -> versus { Config.default with Config.payload })
       [ 128; 512; 1024; 1500 ])
    (fun m ->
      let payload = m.Run.config.Config.payload in
      let goodput_bytes = max 1 (payload - 52) in
      let kpps =
        m.Run.tx_mbps *. 1e6 /. 8. /. float_of_int goodput_bytes /. 1e3
      in
      [
        label ~cdna:"CDNA" m;
        string_of_int payload;
        Report.mbps m.Run.tx_mbps;
        Printf.sprintf "%.0f" kpps;
        idle m;
      ])

let tso =
  let base = Config.cdna_ricenic { Config.default with Config.nics = 6 } in
  table
    ~title:
      "Extension: hypothetical TSO on the CDNA NIC, 6 NICs, transmit (not in \
       the paper)"
    ~header:[ "System"; "GSO segs"; "Goodput Mb/s"; "Gst-OS"; "Hyp"; "Idle" ]
    (List.map (fun gso -> { base with Config.gso_segments = gso }) [ 1; 4; 8 ])
    (fun m ->
      [
        "CDNA+TSO";
        string_of_int m.Run.config.Config.gso_segments;
        Report.mbps m.Run.tx_mbps;
        Report.pct m.Run.profile.Host.Profile.guest_kernel;
        Report.pct m.Run.profile.Host.Profile.hyp;
        idle m;
      ])

let all = [ latency; bidirectional; driver_weight; payload_sweep; tso ]
