type point = { guests : int; xen : Run.measurement; cdna : Run.measurement }

let paper_guest_counts = [ 1; 2; 4; 8; 12; 16; 20; 24 ]

let configs base guest_counts =
  List.concat_map
    (fun guests ->
      let cfg = { base with Config.guests } in
      [ Config.xen_intel cfg; Config.cdna_ricenic cfg ])
    guest_counts

let rec points = function
  | xen :: cdna :: ms ->
      { guests = xen.Run.config.Config.guests; xen; cdna } :: points ms
  | _ -> []

let base pattern = { Config.default with Config.nics = 2; pattern }

let figure3 () =
  points (Sweep.run (configs (base Workload.Pattern.Tx) paper_guest_counts))

(* Paper anchor values for the endpoints of each series. *)
let paper_anchor ~pattern ~guests ~system =
  match (pattern, system, guests) with
  | Workload.Pattern.Tx, `Xen, 1 -> Some 1602.
  | Workload.Pattern.Tx, `Xen, 24 -> Some 891.
  | Workload.Pattern.Tx, `Cdna, 1 -> Some 1867.
  | Workload.Pattern.Tx, `Cdna, 24 -> Some 1867.
  | Workload.Pattern.Rx, `Xen, 1 -> Some 1112.
  | Workload.Pattern.Rx, `Xen, 24 -> Some 558.
  | Workload.Pattern.Rx, `Cdna, 1 -> Some 1874.
  | Workload.Pattern.Rx, `Cdna, 24 -> Some 1874.
  | _ -> None

let paper_cdna_idle ~pattern ~guests =
  match (pattern, guests) with
  | Workload.Pattern.Tx, 1 -> Some 50.8
  | Workload.Pattern.Tx, 2 -> Some 25.4
  | Workload.Pattern.Tx, 4 -> Some 5.9
  | Workload.Pattern.Tx, _ -> Some 0.
  | Workload.Pattern.Rx, 1 -> Some 40.9
  | Workload.Pattern.Rx, 2 -> Some 29.1
  | Workload.Pattern.Rx, 4 -> Some 12.6
  | Workload.Pattern.Rx, _ -> Some 0.
  | Workload.Pattern.Bidirectional, _ -> None

let opt_str f = function Some v -> f v | None -> "-"

let chart points =
  Report.versus_chart ~x_label:"guests"
    (List.map
       (fun p -> (p.guests, Run.primary_mbps p.cdna, Run.primary_mbps p.xen))
       points)

let figure ~title ?(guest_counts = paper_guest_counts) pattern =
  {
    Sweep.title;
    configs = configs (base pattern) guest_counts;
    header =
      [
        "Guests"; "Xen Mb/s"; "(paper)"; "CDNA Mb/s"; "(paper)";
        "CDNA idle"; "(paper)";
      ];
    rows =
      (fun ms ->
        List.map
          (fun p ->
            [
              string_of_int p.guests;
              Report.mbps (Run.primary_mbps p.xen);
              opt_str Report.mbps
                (paper_anchor ~pattern ~guests:p.guests ~system:`Xen);
              Report.mbps (Run.primary_mbps p.cdna);
              opt_str Report.mbps
                (paper_anchor ~pattern ~guests:p.guests ~system:`Cdna);
              Report.pct p.cdna.Run.profile.Host.Profile.idle;
              opt_str Report.pct (paper_cdna_idle ~pattern ~guests:p.guests);
            ])
          (points ms));
    footer = (fun ms -> "\n" ^ chart (points ms));
    csv =
      Some
        ( [ "guests"; "xen_mbps"; "cdna_mbps"; "cdna_idle_pct"; "xen_idle_pct" ],
          fun ms ->
            List.map
              (fun p ->
                [
                  string_of_int p.guests;
                  Printf.sprintf "%.1f" (Run.primary_mbps p.xen);
                  Printf.sprintf "%.1f" (Run.primary_mbps p.cdna);
                  Printf.sprintf "%.1f" p.cdna.Run.profile.Host.Profile.idle;
                  Printf.sprintf "%.1f" p.xen.Run.profile.Host.Profile.idle;
                ])
              (points ms) );
  }

let figures =
  [
    (3, figure ~title:"Figure 3: transmit scaling" Workload.Pattern.Tx);
    (4, figure ~title:"Figure 4: receive scaling" Workload.Pattern.Rx);
  ]
