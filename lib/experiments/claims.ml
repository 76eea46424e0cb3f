type verdict = {
  id : string;
  claim : string;
  measured : string;
  pass : bool;
}

let verify ?quick () =
  let base2 = { Config.default with Config.nics = 2; guests = 1 } in
  let cdna pattern guests =
    Config.cdna_ricenic { base2 with Config.pattern; guests }
  in
  let xen pattern guests =
    Config.xen_intel { base2 with Config.pattern; guests }
  in
  (* The measurement set, shared across claims. *)
  match
    Sweep.run ?quick
      [
        cdna Workload.Pattern.Tx 1;
        cdna Workload.Pattern.Rx 1;
        xen Workload.Pattern.Tx 1;
        xen Workload.Pattern.Rx 1;
        cdna Workload.Pattern.Tx 24;
        cdna Workload.Pattern.Rx 24;
        xen Workload.Pattern.Tx 24;
        xen Workload.Pattern.Rx 24;
        {
          Config.default with
          Config.system = Config.Native;
          nic = Config.Intel;
          nics = 6;
          pattern = Workload.Pattern.Tx;
        };
        Config.xen_intel
          { Config.default with Config.nics = 6; pattern = Workload.Pattern.Tx };
        Config.cdna_ricenic
          {
            base2 with
            Config.pattern = Workload.Pattern.Tx;
            protection = Cdna.Cdna_costs.Disabled;
          };
      ]
  with
  | [
   cdna_tx1; cdna_rx1; xen_tx1; xen_rx1; cdna_tx24; cdna_rx24; xen_tx24;
   xen_rx24; native_tx; xen_tx6; noprot_tx;
  ] ->
      let idle m = m.Run.profile.Host.Profile.idle in
      let drv m = m.Run.profile.Host.Profile.driver_kernel in
      let all =
        [
          cdna_tx1; cdna_rx1; xen_tx1; xen_rx1; cdna_tx24; cdna_rx24; native_tx;
          xen_tx6; noprot_tx;
        ]
      in
      [
        {
          id = "C1";
          claim = "a Xen guest achieves about 30% of native throughput (\xc2\xa72.3)";
          measured =
            Printf.sprintf "%.0f%% of native"
              (xen_tx6.Run.tx_mbps /. native_tx.Run.tx_mbps *. 100.);
          pass =
            (let r = xen_tx6.Run.tx_mbps /. native_tx.Run.tx_mbps in
             r > 0.2 && r < 0.45);
        };
        {
          id = "C2";
          claim = "CDNA transmits ~1867 Mb/s with ~51% idle, one guest (abstract)";
          measured =
            Printf.sprintf "%.0f Mb/s, %.0f%% idle" cdna_tx1.Run.tx_mbps
              (idle cdna_tx1);
          pass = cdna_tx1.Run.tx_mbps > 1800. && idle cdna_tx1 > 40.;
        };
        {
          id = "C3";
          claim = "CDNA receives ~1874 Mb/s with ~41% idle, one guest (abstract)";
          measured =
            Printf.sprintf "%.0f Mb/s, %.0f%% idle" cdna_rx1.Run.rx_mbps
              (idle cdna_rx1);
          pass = cdna_rx1.Run.rx_mbps > 1800. && idle cdna_rx1 > 30.;
        };
        {
          id = "C4";
          claim =
            "Xen saturates the CPU yet cannot saturate two NICs (1602/1112 Mb/s)";
          measured =
            Printf.sprintf "tx %.0f, rx %.0f Mb/s at %.0f/%.0f%% idle"
              xen_tx1.Run.tx_mbps xen_rx1.Run.rx_mbps (idle xen_tx1)
              (idle xen_rx1);
          pass =
            xen_tx1.Run.tx_mbps < 1800.
            && xen_rx1.Run.rx_mbps < 1400.
            && idle xen_tx1 < 10.
            && idle xen_rx1 < 10.;
        };
        {
          id = "C5";
          claim = "with 24 guests CDNA still moves >1860 Mb/s in both directions";
          measured =
            Printf.sprintf "tx %.0f, rx %.0f Mb/s" cdna_tx24.Run.tx_mbps
              cdna_rx24.Run.rx_mbps;
          pass = cdna_tx24.Run.tx_mbps > 1800. && cdna_rx24.Run.rx_mbps > 1800.;
        };
        {
          id = "C6";
          claim = "at 24 guests CDNA wins by ~2.1x transmit and ~3.3x receive";
          measured =
            Printf.sprintf "%.1fx tx, %.1fx rx"
              (cdna_tx24.Run.tx_mbps /. xen_tx24.Run.tx_mbps)
              (cdna_rx24.Run.rx_mbps /. xen_rx24.Run.rx_mbps);
          pass =
            cdna_tx24.Run.tx_mbps /. xen_tx24.Run.tx_mbps > 1.5
            && cdna_rx24.Run.rx_mbps /. xen_rx24.Run.rx_mbps > 2.3;
        };
        {
          id = "C7";
          claim =
            "disabling DMA protection adds ~9% idle at unchanged throughput \
             (Table 4)";
          measured =
            Printf.sprintf "+%.1f points idle, %+.0f Mb/s"
              (idle noprot_tx -. idle cdna_tx1)
              (noprot_tx.Run.tx_mbps -. cdna_tx1.Run.tx_mbps);
          pass =
            idle noprot_tx -. idle cdna_tx1 > 4.
            && Float.abs (noprot_tx.Run.tx_mbps -. cdna_tx1.Run.tx_mbps) < 60.;
        };
        {
          id = "C8";
          claim =
            "the driver domain consumes ~35-40% CPU under Xen and none under CDNA";
          measured =
            Printf.sprintf "Xen %.0f%%, CDNA %.1f%%" (drv xen_tx1) (drv cdna_tx1);
          pass = drv xen_tx1 > 25. && drv cdna_tx1 < 1.;
        };
        {
          id = "C9";
          claim = "no corruption, drops or protection faults in any of the above";
          measured =
            Printf.sprintf "faults=%d integrity=%d"
              (List.fold_left (fun a m -> a + m.Run.faults) 0 all)
              (List.fold_left (fun a m -> a + m.Run.integrity_failures) 0 all);
          pass =
            List.for_all
              (fun m -> m.Run.faults = 0 && m.Run.integrity_failures = 0)
              all;
        };
      ]
  | _ -> assert false (* one measurement per config *)

let print verdicts =
  Report.print
    ~header:[ ""; "Claim"; "Measured"; "Verdict" ]
    (List.map
       (fun v ->
         [ v.id; v.claim; v.measured; (if v.pass then "PASS" else "FAIL") ])
       verdicts);
  let ok = List.for_all (fun v -> v.pass) verdicts in
  Printf.printf "\n%s\n"
    (if ok then "All of the paper's headline claims hold in the reproduction."
     else "SOME CLAIMS FAILED — see above.");
  ok
