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

let table1 =
  let base =
    { Config.default with Config.nics = 6; nic = Config.Intel; guests = 1 }
  in
  let systems =
    [ ("Native Linux", Config.Native, 5126., 3629.);
      ("Xen Guest", Config.Xen_sw, 1602., 1112.) ]
  in
  (* Two measurements per system: transmit, then receive. *)
  let rec rows systems ms =
    match (systems, ms) with
    | (label, _, paper_tx, paper_rx) :: systems, tx :: rx :: ms ->
        [
          label;
          Report.mbps tx.Run.tx_mbps;
          Report.mbps paper_tx;
          Report.mbps rx.Run.rx_mbps;
          Report.mbps paper_rx;
        ]
        :: rows systems ms
    | _ -> []
  in
  {
    Sweep.title =
      "Table 1: transmit/receive, native vs Xen guest (6 Intel NICs)";
    configs =
      List.concat_map
        (fun (_, system, _, _) ->
          List.map
            (fun pattern -> { base with Config.system; pattern })
            [ Workload.Pattern.Tx; Workload.Pattern.Rx ])
        systems;
    header = [ "System"; "Tx Mb/s"; "(paper)"; "Rx Mb/s"; "(paper)" ];
    rows = rows systems;
    footer = Fun.const "";
    csv =
      Some
        ( [ "system"; "tx_mbps"; "tx_paper"; "rx_mbps"; "rx_paper" ],
          rows systems );
  }

(* ---------- Tables 2-4: one execution profile per row ---------- *)

let profile_cells ~rate (m : Run.measurement) =
  let p = m.Run.profile in
  [
    Report.mbps (Run.primary_mbps m);
    Report.pct p.Host.Profile.hyp;
    Report.pct p.Host.Profile.driver_kernel;
    Report.pct p.Host.Profile.driver_user;
    Report.pct p.Host.Profile.guest_kernel;
    Report.pct p.Host.Profile.guest_user;
    Report.pct p.Host.Profile.idle;
    rate m.Run.driver_virq_per_sec;
    rate m.Run.guest_virq_per_sec;
  ]

let paper_cells ~rate p =
  [
    Report.mbps p.p_mbps;
    Report.pct p.p_hyp;
    Report.pct p.p_drv_os;
    Report.pct p.p_drv_user;
    Report.pct p.p_guest_os;
    Report.pct p.p_guest_user;
    Report.pct p.p_idle;
    rate p.p_drv_intr;
    rate p.p_guest_intr;
  ]

(* [systems], one (label, config, paper) triple per measured system: each
   gives a simulated row and the paper's row, labelled [tag "sim"] and
   [tag "paper"], with interrupt rates printed by [rate]. *)
let profile_table ~title systems =
  let cells ~tag ~rate ms =
    List.concat
      (List.map2
         (fun (label, _, paper) m ->
           [
             (label ^ tag "sim") :: profile_cells ~rate m;
             (label ^ tag "paper") :: paper_cells ~rate paper;
           ])
         systems ms)
  in
  {
    Sweep.title;
    configs = List.map (fun (_, cfg, _) -> cfg) systems;
    header =
      [
        "System"; "Mb/s"; "Hyp"; "Drv-OS"; "Drv-Usr"; "Gst-OS"; "Gst-Usr";
        "Idle"; "Drv-int/s"; "Gst-int/s";
      ];
    rows = cells ~tag:(fun k -> " (" ^ k ^ ")") ~rate:Report.rate;
    footer = Fun.const "";
    csv =
      Some
        ( [
            "system"; "mbps"; "hyp"; "drv_os"; "drv_user"; "guest_os";
            "guest_user"; "idle"; "drv_intr"; "guest_intr";
          ],
          (* Plain integers: a thousands separator is a field separator. *)
          cells ~tag:(fun k -> "/" ^ k) ~rate:(Printf.sprintf "%.0f") );
  }

let single_guest pattern papers =
  let base = { Config.default with Config.nics = 2; guests = 1; pattern } in
  List.map2
    (fun (label, cfg) paper -> (label, cfg, paper))
    [
      ("Xen/Intel", Config.xen_intel base);
      ( "Xen/RiceNIC",
        { base with Config.system = Config.Xen_sw; nic = Config.Ricenic } );
      ("CDNA/RiceNIC", Config.cdna_ricenic base);
    ]
    papers

let table4 =
  let base =
    Config.cdna_ricenic { Config.default with Config.nics = 2; guests = 1 }
  in
  let row label pattern protection paper =
    (label, { base with Config.pattern; protection }, paper)
  in
  profile_table
    ~title:
      "Table 4: CDNA 2-NIC transmit/receive with and without DMA protection"
    [
      row "CDNA Tx (prot on)" Workload.Pattern.Tx Cdna.Cdna_costs.Full
        paper_t4_tx_on;
      row "CDNA Tx (prot off)" Workload.Pattern.Tx Cdna.Cdna_costs.Disabled
        paper_t4_tx_off;
      row "CDNA Rx (prot on)" Workload.Pattern.Rx Cdna.Cdna_costs.Full
        paper_t4_rx_on;
      row "CDNA Rx (prot off)" Workload.Pattern.Rx Cdna.Cdna_costs.Disabled
        paper_t4_rx_off;
    ]

let tables =
  [
    table1;
    profile_table ~title:"Table 2: transmit, single guest, 2 NICs"
      (single_guest Workload.Pattern.Tx
         [ paper_t2_xen_intel; paper_t2_xen_ricenic; paper_t2_cdna ]);
    profile_table ~title:"Table 3: receive, single guest, 2 NICs"
      (single_guest Workload.Pattern.Rx
         [ paper_t3_xen_intel; paper_t3_xen_ricenic; paper_t3_cdna ]);
    table4;
  ]
