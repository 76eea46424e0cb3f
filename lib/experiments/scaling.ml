let default_guest_counts = [ 8; 16; 24; 32; 48; 64; 96; 128; 192; 256 ]
let default_cpu_counts = [ 1; 2; 4 ]

(* The rx-heavy preset: receive-dominated traffic does more work per
   context touch (netback RX is the expensive side; CDNA RX touches the
   paged context per delivery), and a 10x smaller scheduler slice
   multiplies context switches — together they push context-swap rates
   toward the regime where paging overhead could hand the win back to
   the software path. *)
let rx_heavy_slice = Sim.Time.us 100

let cpus (p : Figures.point) = p.Figures.cdna.Run.config.Config.cpus

let swaps_per_sec (p : Figures.point) =
  let m = p.Figures.cdna in
  float_of_int m.Run.ctx_swaps /. Sim.Time.to_sec_f m.Run.config.Config.duration

(* Per CPU count, the smallest guest count at which context-swap
   overhead drags CDNA to or below the software path; then, with [chart],
   that CPU count's two series. *)
let footer ~chart ms =
  let points = Figures.points ms in
  let crossover c =
    let losses =
      List.filter_map
        (fun (p : Figures.point) ->
          if
            cpus p = c
            && Run.primary_mbps p.Figures.cdna <= Run.primary_mbps p.Figures.xen
          then Some p.Figures.guests
          else None)
        points
    in
    match List.sort Int.compare losses with
    | g :: _ ->
        Printf.sprintf
          "%d CPU(s): CDNA falls to the software path at %d guests\n" c g
    | [] -> Printf.sprintf "%d CPU(s): CDNA ahead at every measured point\n" c
  in
  let chart =
    match chart with
    | Some c ->
        "\n" ^ Figures.chart (List.filter (fun p -> cpus p = c) points)
    | None -> ""
  in
  String.concat ""
    (List.map crossover (List.sort_uniq Int.compare (List.map cpus points)))
  ^ chart

let sweep ?(pattern = Workload.Pattern.Tx) ?slice
    ?(guest_counts = default_guest_counts) ?(cpu_counts = default_cpu_counts)
    ?chart () =
  {
    Sweep.title =
      "Guest scaling past the 32 hardware contexts (CDNA pages contexts; Xen \
       bridges in software):\n";
    configs =
      List.concat_map
        (fun cpus ->
          Figures.configs
            { Config.default with Config.nics = 2; pattern; slice; cpus }
            guest_counts)
        cpu_counts;
    header =
      [
        "CPUs"; "Guests"; "Xen Mb/s"; "CDNA Mb/s"; "Ctx swaps"; "Swaps/s";
        "CDNA idle";
      ];
    rows =
      (fun ms ->
        List.map
          (fun (p : Figures.point) ->
            [
              string_of_int (cpus p);
              string_of_int p.Figures.guests;
              Report.mbps (Run.primary_mbps p.Figures.xen);
              Report.mbps (Run.primary_mbps p.Figures.cdna);
              string_of_int p.Figures.cdna.Run.ctx_swaps;
              Printf.sprintf "%.0f" (swaps_per_sec p);
              Report.pct p.Figures.cdna.Run.profile.Host.Profile.idle;
            ])
          (Figures.points ms));
    footer = footer ~chart;
    csv =
      Some
        ( [
            "cpus"; "guests"; "xen_mbps"; "cdna_mbps"; "ctx_swaps";
            "ctx_swaps_per_sec"; "cdna_idle_pct";
          ],
          fun ms ->
            List.map
              (fun (p : Figures.point) ->
                [
                  string_of_int (cpus p);
                  string_of_int p.Figures.guests;
                  Printf.sprintf "%.1f" (Run.primary_mbps p.Figures.xen);
                  Printf.sprintf "%.1f" (Run.primary_mbps p.Figures.cdna);
                  string_of_int p.Figures.cdna.Run.ctx_swaps;
                  Printf.sprintf "%.1f" (swaps_per_sec p);
                  Printf.sprintf "%.1f"
                    p.Figures.cdna.Run.profile.Host.Profile.idle;
                ])
              (Figures.points ms) );
  }
