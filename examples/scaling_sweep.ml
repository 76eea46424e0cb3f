(* Server consolidation: how aggregate network throughput behaves as more
   virtual machines share one physical host — the motivating scenario of
   the paper's introduction, and a miniature of its Figures 3 and 4.

   Run with: dune exec examples/scaling_sweep.exe *)

let () =
  print_endline
    "Consolidation sweep: aggregate transmit throughput vs. guest count";
  print_endline
    "(Xen software I/O virtualization vs. concurrent direct network access)";
  print_newline ();
  let figure =
    Experiments.Figures.figure ~title:"Transmit scaling (mini Figure 3)"
      ~guest_counts:[ 1; 4; 8; 16 ] Workload.Pattern.Tx
  in
  let ms =
    Experiments.Sweep.run ~quick:true figure.Experiments.Sweep.configs
  in
  print_string (Experiments.Sweep.render figure ms);
  print_newline ();
  (* Narrate the two effects the paper calls out. *)
  let points = Experiments.Figures.points ms in
  match (points, List.rev points) with
  | first :: _, last :: _ ->
      let xen_drop =
        Experiments.Run.primary_mbps first.Experiments.Figures.xen
        /. Experiments.Run.primary_mbps last.Experiments.Figures.xen
      in
      Format.printf
        "Xen throughput degrades by %.1fx from %d to %d guests: the driver@\n\
         domain polls more back-end rings per pass, guests batch less, and@\n\
         domain switches burn CPU.@."
        xen_drop first.Experiments.Figures.guests
        last.Experiments.Figures.guests;
      Format.printf
        "CDNA stays at line rate; its idle time (%.1f%% -> %.1f%%) is what@\n\
         shrinks, because one physical interrupt now fans out to many guest@\n\
         virtual interrupts.@."
        first.Experiments.Figures.cdna.Experiments.Run.profile
          .Host.Profile.idle
        last.Experiments.Figures.cdna.Experiments.Run.profile
          .Host.Profile.idle
  | _ -> ()
