let default_guest_counts = [ 8; 16; 24; 32; 48; 64; 96; 128; 192; 256 ]
let default_cpu_counts = [ 1; 2; 4 ]

(* The rx-heavy preset: receive-dominated traffic does more work per
   context touch (netback RX is the expensive side; CDNA RX touches the
   paged context per delivery), and a 10x smaller scheduler slice
   multiplies context switches — together they push context-swap rates
   toward the regime where paging overhead could hand the win back to
   the software path. *)
let rx_heavy_slice = Sim.Time.us 100

let sweep ?quick ?(pattern = Workload.Pattern.Tx) ?slice
    ?(guest_counts = default_guest_counts) ?(cpu_counts = default_cpu_counts)
    () =
  List.concat_map
    (fun cpus ->
      Figures.sweep ?quick
        { Config.default with Config.nics = 2; pattern; slice; cpus }
        guest_counts)
    cpu_counts

let cpus (p : Figures.point) = p.Figures.cdna.Run.config.Config.cpus

(* Smallest guest count (per CPU count) at which context-swap overhead
   drags CDNA to or below the software path; [None] when CDNA wins
   everywhere measured. *)
let crossover points ~cpus:c =
  List.fold_left
    (fun acc (p : Figures.point) ->
      if
        cpus p = c
        && Run.primary_mbps p.Figures.cdna <= Run.primary_mbps p.Figures.xen
        && match acc with None -> true | Some g -> p.Figures.guests < g
      then Some p.Figures.guests
      else acc)
    None points

let swaps_per_sec (p : Figures.point) =
  let m = p.Figures.cdna in
  float_of_int m.Run.ctx_swaps /. Sim.Time.to_sec_f m.Run.config.Config.duration

let print_table points =
  Report.print
    ~header:
      [
        "CPUs"; "Guests"; "Xen Mb/s"; "CDNA Mb/s"; "Ctx swaps"; "Swaps/s";
        "CDNA idle";
      ]
    (List.map
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
       points);
  List.iter
    (fun c ->
      match crossover points ~cpus:c with
      | Some g ->
          Printf.printf
            "%d CPU(s): CDNA falls to the software path at %d guests\n" c g
      | None -> Printf.printf "%d CPU(s): CDNA ahead at every measured point\n" c)
    (List.sort_uniq Int.compare (List.map cpus points))

let csv points =
  Report.csv
    ~header:
      [
        "cpus"; "guests"; "xen_mbps"; "cdna_mbps"; "ctx_swaps";
        "ctx_swaps_per_sec"; "cdna_idle_pct";
      ]
    (List.map
       (fun (p : Figures.point) ->
         [
           string_of_int (cpus p);
           string_of_int p.Figures.guests;
           Printf.sprintf "%.1f" (Run.primary_mbps p.Figures.xen);
           Printf.sprintf "%.1f" (Run.primary_mbps p.Figures.cdna);
           string_of_int p.Figures.cdna.Run.ctx_swaps;
           Printf.sprintf "%.1f" (swaps_per_sec p);
           Printf.sprintf "%.1f" p.Figures.cdna.Run.profile.Host.Profile.idle;
         ])
       points)
