type paper_profile = {
  p_mbps : float;
  p_hyp : float;
  p_drv_os : float;
  p_drv_user : float;
  p_guest_os : float;
  p_guest_user : float;
  p_idle : float;
  p_drv_intr : float;
  p_guest_intr : float;
}

(* Published values (paper Tables 2-4). *)

let paper_t2_xen_intel =
  { p_mbps = 1602.; p_hyp = 19.8; p_drv_os = 35.7; p_drv_user = 0.8;
    p_guest_os = 39.7; p_guest_user = 1.0; p_idle = 3.0;
    p_drv_intr = 7438.; p_guest_intr = 7853. }

let paper_t2_xen_ricenic =
  { p_mbps = 1674.; p_hyp = 13.7; p_drv_os = 41.5; p_drv_user = 0.5;
    p_guest_os = 39.5; p_guest_user = 1.0; p_idle = 3.8;
    p_drv_intr = 8839.; p_guest_intr = 5661. }

let paper_t2_cdna =
  { p_mbps = 1867.; p_hyp = 10.2; p_drv_os = 0.3; p_drv_user = 0.2;
    p_guest_os = 37.8; p_guest_user = 0.7; p_idle = 50.8;
    p_drv_intr = 0.; p_guest_intr = 13659. }

let paper_t3_xen_intel =
  { p_mbps = 1112.; p_hyp = 25.7; p_drv_os = 36.8; p_drv_user = 0.5;
    p_guest_os = 31.0; p_guest_user = 1.0; p_idle = 5.0;
    p_drv_intr = 11138.; p_guest_intr = 5193. }

let paper_t3_xen_ricenic =
  { p_mbps = 1075.; p_hyp = 30.6; p_drv_os = 39.4; p_drv_user = 0.6;
    p_guest_os = 28.8; p_guest_user = 0.6; p_idle = 0.;
    p_drv_intr = 10946.; p_guest_intr = 5163. }

let paper_t3_cdna =
  { p_mbps = 1874.; p_hyp = 9.9; p_drv_os = 0.3; p_drv_user = 0.2;
    p_guest_os = 48.0; p_guest_user = 0.7; p_idle = 40.9;
    p_drv_intr = 0.; p_guest_intr = 7402. }

let paper_t4_tx_on = paper_t2_cdna

let paper_t4_tx_off =
  { p_mbps = 1867.; p_hyp = 1.9; p_drv_os = 0.2; p_drv_user = 0.2;
    p_guest_os = 37.0; p_guest_user = 0.3; p_idle = 60.4;
    p_drv_intr = 0.; p_guest_intr = 13680. }

let paper_t4_rx_on = paper_t3_cdna

let paper_t4_rx_off =
  { p_mbps = 1874.; p_hyp = 1.9; p_drv_os = 0.2; p_drv_user = 0.2;
    p_guest_os = 47.2; p_guest_user = 0.3; p_idle = 50.2;
    p_drv_intr = 0.; p_guest_intr = 7243. }

(* ---------- Table 1 ---------- *)

type t1_row = {
  t1_label : string;
  t1_tx : Run.measurement;
  t1_rx : Run.measurement;
  t1_paper_tx : float;
  t1_paper_rx : float;
}

let table1 ?(quick = false) () =
  let base =
    { Config.default with Config.nics = 6; nic = Config.Intel; guests = 1 }
  in
  let run system pattern =
    Run.run ~quick { base with Config.system; pattern }
  in
  [
    {
      t1_label = "Native Linux";
      t1_tx = run Config.Native Workload.Pattern.Tx;
      t1_rx = run Config.Native Workload.Pattern.Rx;
      t1_paper_tx = 5126.;
      t1_paper_rx = 3629.;
    };
    {
      t1_label = "Xen Guest";
      t1_tx = run Config.Xen_sw Workload.Pattern.Tx;
      t1_rx = run Config.Xen_sw Workload.Pattern.Rx;
      t1_paper_tx = 1602.;
      t1_paper_rx = 1112.;
    };
  ]

let print_table1 rows =
  print_endline "Table 1: transmit/receive, native vs Xen guest (6 Intel NICs)";
  Report.print
    ~header:
      [ "System"; "Tx Mb/s"; "(paper)"; "Rx Mb/s"; "(paper)" ]
    (List.map
       (fun r ->
         [
           r.t1_label;
           Report.mbps r.t1_tx.Run.tx_mbps;
           Report.mbps r.t1_paper_tx;
           Report.mbps r.t1_rx.Run.rx_mbps;
           Report.mbps r.t1_paper_rx;
         ])
       rows)

(* ---------- Tables 2/3 ---------- *)

type t23_row = {
  t23_label : string;
  t23_m : Run.measurement;
  t23_paper : paper_profile;
}

let t23_configs pattern =
  let base = { Config.default with Config.nics = 2; guests = 1; pattern } in
  [
    ("Xen/Intel", Config.xen_intel base);
    ( "Xen/RiceNIC",
      { base with Config.system = Config.Xen_sw; nic = Config.Ricenic } );
    ("CDNA/RiceNIC", Config.cdna_ricenic base);
  ]

let table2 ?(quick = false) () =
  List.map2
    (fun (label, cfg) paper ->
      { t23_label = label; t23_m = Run.run ~quick cfg; t23_paper = paper })
    (t23_configs Workload.Pattern.Tx)
    [ paper_t2_xen_intel; paper_t2_xen_ricenic; paper_t2_cdna ]

let table3 ?(quick = false) () =
  List.map2
    (fun (label, cfg) paper ->
      { t23_label = label; t23_m = Run.run ~quick cfg; t23_paper = paper })
    (t23_configs Workload.Pattern.Rx)
    [ paper_t3_xen_intel; paper_t3_xen_ricenic; paper_t3_cdna ]

let profile_cells (m : Run.measurement) =
  let p = m.Run.profile in
  [
    Report.mbps (Run.primary_mbps m);
    Report.pct p.Host.Profile.hyp;
    Report.pct p.Host.Profile.driver_kernel;
    Report.pct p.Host.Profile.driver_user;
    Report.pct p.Host.Profile.guest_kernel;
    Report.pct p.Host.Profile.guest_user;
    Report.pct p.Host.Profile.idle;
    Report.rate m.Run.driver_virq_per_sec;
    Report.rate m.Run.guest_virq_per_sec;
  ]

let paper_cells p =
  [
    Report.mbps p.p_mbps;
    Report.pct p.p_hyp;
    Report.pct p.p_drv_os;
    Report.pct p.p_drv_user;
    Report.pct p.p_guest_os;
    Report.pct p.p_guest_user;
    Report.pct p.p_idle;
    Report.rate p.p_drv_intr;
    Report.rate p.p_guest_intr;
  ]

let t23_header =
  [
    "System"; "Mb/s"; "Hyp"; "Drv-OS"; "Drv-Usr"; "Gst-OS"; "Gst-Usr";
    "Idle"; "Drv-int/s"; "Gst-int/s";
  ]

let print_table23 ~title rows =
  print_endline title;
  Report.print ~header:t23_header
    (List.concat_map
       (fun r ->
         [
           (r.t23_label ^ " (sim)") :: profile_cells r.t23_m;
           (r.t23_label ^ " (paper)") :: paper_cells r.t23_paper;
         ])
       rows)

(* ---------- Table 4 ---------- *)

let table4 ?(quick = false) () =
  let base =
    Config.cdna_ricenic { Config.default with Config.nics = 2; guests = 1 }
  in
  let run pattern protection =
    Run.run ~quick { base with Config.pattern; protection }
  in
  [
    {
      t23_label = "CDNA Tx (prot on)";
      t23_m = run Workload.Pattern.Tx Cdna.Cdna_costs.Full;
      t23_paper = paper_t4_tx_on;
    };
    {
      t23_label = "CDNA Tx (prot off)";
      t23_m = run Workload.Pattern.Tx Cdna.Cdna_costs.Disabled;
      t23_paper = paper_t4_tx_off;
    };
    {
      t23_label = "CDNA Rx (prot on)";
      t23_m = run Workload.Pattern.Rx Cdna.Cdna_costs.Full;
      t23_paper = paper_t4_rx_on;
    };
    {
      t23_label = "CDNA Rx (prot off)";
      t23_m = run Workload.Pattern.Rx Cdna.Cdna_costs.Disabled;
      t23_paper = paper_t4_rx_off;
    };
  ]

let csv_table1 rows =
  Report.csv
    ~header:[ "system"; "tx_mbps"; "tx_paper"; "rx_mbps"; "rx_paper" ]
    (List.map
       (fun r ->
         [
           r.t1_label;
           Report.mbps r.t1_tx.Run.tx_mbps;
           Report.mbps r.t1_paper_tx;
           Report.mbps r.t1_rx.Run.rx_mbps;
           Report.mbps r.t1_paper_rx;
         ])
       rows)

let csv_table23 rows =
  Report.csv
    ~header:
      [
        "system"; "mbps"; "hyp"; "drv_os"; "drv_user"; "guest_os";
        "guest_user"; "idle"; "drv_intr"; "guest_intr";
      ]
    (List.concat_map
       (fun r ->
         [
           (r.t23_label ^ "/sim") :: profile_cells r.t23_m;
           (r.t23_label ^ "/paper") :: paper_cells r.t23_paper;
         ])
       rows)

type table = { print : quick:bool -> unit; csv : quick:bool -> string }

let t23 ~title (run : ?quick:bool -> unit -> t23_row list) =
  {
    print = (fun ~quick -> print_table23 ~title (run ~quick ()));
    csv = (fun ~quick -> csv_table23 (run ~quick ()));
  }

let tables =
  [
    {
      print = (fun ~quick -> print_table1 (table1 ~quick ()));
      csv = (fun ~quick -> csv_table1 (table1 ~quick ()));
    };
    t23 ~title:"Table 2: transmit, single guest, 2 NICs" table2;
    t23 ~title:"Table 3: receive, single guest, 2 NICs" table3;
    t23
      ~title:
        "Table 4: CDNA 2-NIC transmit/receive with and without DMA protection"
      table4;
  ]

let print_all ?(quick = false) () =
  List.iteri
    (fun i t ->
      if i > 0 then print_newline ();
      t.print ~quick)
    tables
