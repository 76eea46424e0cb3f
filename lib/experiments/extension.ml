(* The paper's pairing on one base configuration, Xen first. *)
let versus ~quick ~cdna_label base =
  let xen = Run.run ~quick (Config.xen_intel base) in
  let cdna = Run.run ~quick (Config.cdna_ricenic base) in
  [ ("Xen/Intel", xen); (cdna_label, cdna) ]

type latency_row = {
  l_label : string;
  l_guests : int;
  l_m : Run.measurement;
}

let latency ?(quick = false) ?(guest_counts = [ 1; 4; 8 ]) () =
  let base =
    { Config.default with Config.nics = 2; pattern = Workload.Pattern.Tx }
  in
  List.concat_map
    (fun guests ->
      List.map
        (fun (l_label, l_m) -> { l_label; l_guests = guests; l_m })
        (versus ~quick ~cdna_label:"CDNA" { base with Config.guests }))
    guest_counts

let print_latency rows =
  print_endline
    "Extension: end-to-end packet latency, transmit (not in the paper)";
  Report.print
    ~header:[ "System"; "Guests"; "Mb/s"; "p50 latency"; "p99 latency" ]
    (List.map
       (fun r ->
         [
           r.l_label;
           string_of_int r.l_guests;
           Report.mbps (Run.primary_mbps r.l_m);
           Printf.sprintf "%.0f us" r.l_m.Run.latency_p50_us;
           Printf.sprintf "%.0f us" r.l_m.Run.latency_p99_us;
         ])
       rows)

type bidir_row = { b_label : string; b_m : Run.measurement }

let bidirectional ?(quick = false) () =
  let base =
    {
      Config.default with
      Config.nics = 2;
      guests = 1;
      pattern = Workload.Pattern.Bidirectional;
    }
  in
  List.map
    (fun (b_label, b_m) -> { b_label; b_m })
    (versus ~quick ~cdna_label:"CDNA/RiceNIC" base)

let print_bidirectional rows =
  print_endline
    "Extension: simultaneous transmit + receive, single guest (not in the paper)";
  Report.print
    ~header:[ "System"; "Tx Mb/s"; "Rx Mb/s"; "Total"; "Idle" ]
    (List.map
       (fun r ->
         [
           r.b_label;
           Report.mbps r.b_m.Run.tx_mbps;
           Report.mbps r.b_m.Run.rx_mbps;
           Report.mbps (r.b_m.Run.tx_mbps +. r.b_m.Run.rx_mbps);
           Report.pct r.b_m.Run.profile.Host.Profile.idle;
         ])
       rows)

type weight_row = { w_weight : int; w_m : Run.measurement }

let driver_weight ?(quick = false) ?(weights = [ 256; 512; 1024; 2048 ]) () =
  let base =
    {
      Config.default with
      Config.system = Config.Xen_sw;
      nic = Config.Intel;
      nics = 2;
      guests = 16;
      pattern = Workload.Pattern.Rx;
    }
  in
  List.map
    (fun w ->
      { w_weight = w; w_m = Run.run ~quick { base with Config.driver_weight = w } })
    weights

let print_driver_weight rows =
  print_endline
    "Extension: driver-domain scheduler weight, Xen receive, 16 guests (not in the paper)";
  Report.print
    ~header:[ "dom0 weight"; "Rx Mb/s"; "Drv-OS"; "Hyp"; "Drops" ]
    (List.map
       (fun r ->
         [
           string_of_int r.w_weight;
           Report.mbps r.w_m.Run.rx_mbps;
           Report.pct r.w_m.Run.profile.Host.Profile.driver_kernel;
           Report.pct r.w_m.Run.profile.Host.Profile.hyp;
           string_of_int r.w_m.Run.rx_drops;
         ])
       rows);
  print_endline
    "(Weight barely matters: netback is event-driven and blocks when idle,\n\
    \ so boost-on-wake already gives the driver domain the CPU it asks for\n\
    \ -- consistent with period reports that dom0 weighting did little for\n\
    \ I/O-bound loads. The bottleneck is per-packet work, not scheduling\n\
    \ share.)" 

type payload_row = {
  p_label : string;
  p_payload : int;
  p_m : Run.measurement;
}

let payload_sweep ?(quick = false) ?(sizes = [ 128; 512; 1024; 1500 ]) () =
  let base =
    { Config.default with Config.nics = 2; guests = 1; pattern = Workload.Pattern.Tx }
  in
  List.concat_map
    (fun payload ->
      List.map
        (fun (p_label, p_m) -> { p_label; p_payload = payload; p_m })
        (versus ~quick ~cdna_label:"CDNA" { base with Config.payload }))
    sizes

let print_payload_sweep rows =
  print_endline
    "Extension: transmit throughput vs packet size, single guest (not in the paper)";
  Report.print
    ~header:[ "System"; "Payload B"; "Goodput Mb/s"; "kpkt/s"; "Idle" ]
    (List.map
       (fun r ->
         let goodput_bytes = max 1 (r.p_payload - 52) in
         let kpps =
           r.p_m.Run.tx_mbps *. 1e6 /. 8.
           /. float_of_int goodput_bytes /. 1e3
         in
         [
           r.p_label;
           string_of_int r.p_payload;
           Report.mbps r.p_m.Run.tx_mbps;
           Printf.sprintf "%.0f" kpps;
           Report.pct r.p_m.Run.profile.Host.Profile.idle;
         ])
       rows)

type tso_row = { t_label : string; t_gso : int; t_m : Run.measurement }

let tso ?(quick = false) ?(segment_counts = [ 1; 4; 8 ]) () =
  let base =
    {
      Config.default with
      Config.system = Config.Cdna_sys;
      nics = 6;
      guests = 1;
      pattern = Workload.Pattern.Tx;
    }
  in
  List.map
    (fun gso ->
      {
        t_label = "CDNA+TSO";
        t_gso = gso;
        t_m = Run.run ~quick { base with Config.gso_segments = gso };
      })
    segment_counts

let print_tso rows =
  print_endline
    "Extension: hypothetical TSO on the CDNA NIC, 6 NICs, transmit (not in the paper)";
  Report.print
    ~header:[ "System"; "GSO segs"; "Goodput Mb/s"; "Gst-OS"; "Hyp"; "Idle" ]
    (List.map
       (fun r ->
         [
           r.t_label;
           string_of_int r.t_gso;
           Report.mbps r.t_m.Run.tx_mbps;
           Report.pct r.t_m.Run.profile.Host.Profile.guest_kernel;
           Report.pct r.t_m.Run.profile.Host.Profile.hyp;
           Report.pct r.t_m.Run.profile.Host.Profile.idle;
         ])
       rows)

let print_all ?(quick = false) () =
  print_latency (latency ~quick ());
  print_newline ();
  print_bidirectional (bidirectional ~quick ());
  print_newline ();
  print_driver_weight (driver_weight ~quick ());
  print_newline ();
  print_payload_sweep (payload_sweep ~quick ());
  print_newline ();
  print_tso (tso ~quick ())
