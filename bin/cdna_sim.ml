(* Command-line driver for the CDNA reproduction: run any single
   experiment, any of the paper's tables, or the figure sweeps. *)

open Cmdliner

let quick =
  let doc = "Shorten warm-up and measurement (~4x faster, noisier)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let system =
  let doc = "System to simulate: native, xen, or cdna." in
  let parse = function
    | "native" -> Ok Experiments.Config.Native
    | "xen" -> Ok Experiments.Config.Xen_sw
    | "cdna" -> Ok Experiments.Config.Cdna_sys
    | s -> Error (`Msg ("unknown system: " ^ s))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (String.lowercase_ascii (Experiments.Config.system_name s))
  in
  Arg.(
    value
    & opt (conv (parse, print)) Experiments.Config.Cdna_sys
    & info [ "s"; "system" ] ~docv:"SYSTEM" ~doc)

let nic =
  let doc = "NIC model: intel or ricenic." in
  let parse = function
    | "intel" -> Ok Experiments.Config.Intel
    | "ricenic" -> Ok Experiments.Config.Ricenic
    | s -> Error (`Msg ("unknown nic: " ^ s))
  in
  let print ppf n =
    Format.pp_print_string ppf
      (String.lowercase_ascii (Experiments.Config.nic_name n))
  in
  Arg.(
    value
    & opt (conv (parse, print)) Experiments.Config.Ricenic
    & info [ "nic" ] ~docv:"NIC" ~doc)

let pattern =
  let doc = "Traffic pattern: tx, rx, or bidir." in
  let parse = function
    | "tx" -> Ok Workload.Pattern.Tx
    | "rx" -> Ok Workload.Pattern.Rx
    | "bidir" -> Ok Workload.Pattern.Bidirectional
    | s -> Error (`Msg ("unknown pattern: " ^ s))
  in
  let print ppf p = Workload.Pattern.pp ppf p in
  Arg.(
    value
    & opt (conv (parse, print)) Workload.Pattern.Tx
    & info [ "p"; "pattern" ] ~docv:"PATTERN" ~doc)

let integer s = int_of_string_opt (String.trim s)

(* A count of things a testbed is built from (guests, NICs, CPUs,
   hosts): zero or less is a usage error, not an empty measurement. *)
let positive s =
  match integer s with Some n when n >= 1 -> Some n | Some _ | None -> None

let pos_int =
  let parse s =
    match positive s with
    | Some n -> Ok n
    | None -> Error (`Msg ("expected a positive integer, got " ^ s))
  in
  Arg.conv (parse, Format.pp_print_int)

let guests =
  Arg.(
    value & opt pos_int 1
    & info [ "g"; "guests" ] ~docv:"N" ~doc:"Number of guest domains.")

let nics =
  Arg.(
    value & opt pos_int 2
    & info [ "nics" ] ~docv:"N" ~doc:"Number of physical NICs.")

let cpus =
  Arg.(
    value & opt pos_int 1
    & info [ "cpus" ] ~docv:"N"
        ~doc:
          "Host CPUs, each with its own credit runqueue (1 = the paper's \
           single-CPU testbed).")

(* Comma-separated integer list, e.g. --guest-counts 8,16,32, whose
   elements [elt] accepts. *)
let int_list_conv ~what elt =
  let parse s =
    let xs = List.map elt (String.split_on_char ',' s) in
    if List.mem None xs then
      Error (`Msg (Printf.sprintf "not a comma-separated %s list: %s" what s))
    else Ok (List.filter_map Fun.id xs)
  in
  let print ppf l =
    Format.pp_print_string ppf (String.concat "," (List.map string_of_int l))
  in
  Arg.conv (parse, print)

let count_list_conv = int_list_conv ~what:"positive int" positive

let protection =
  let doc = "CDNA DMA protection mode: full, disabled, or iommu." in
  let parse = function
    | "full" -> Ok Cdna.Cdna_costs.Full
    | "disabled" -> Ok Cdna.Cdna_costs.Disabled
    | "iommu" -> Ok Cdna.Cdna_costs.Iommu
    | s -> Error (`Msg ("unknown protection mode: " ^ s))
  in
  let print ppf = function
    | Cdna.Cdna_costs.Full -> Format.pp_print_string ppf "full"
    | Cdna.Cdna_costs.Disabled -> Format.pp_print_string ppf "disabled"
    | Cdna.Cdna_costs.Iommu -> Format.pp_print_string ppf "iommu"
  in
  Arg.(
    value
    & opt (conv (parse, print)) Cdna.Cdna_costs.Full
    & info [ "protection" ] ~docv:"MODE" ~doc)

let materialize =
  Arg.(
    value & flag
    & info [ "materialize" ]
        ~doc:"Move and verify real payload bytes through simulated DMA.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let hosts =
  Arg.(
    value & opt pos_int 1
    & info [ "hosts" ] ~docv:"K"
        ~doc:
          "Run K independent replica hosts one after the other (1 = classic \
           single-host run). Host i uses seed SEED + 7919*i; its measurement \
           line is prefixed 'host i |' and artifacts are written per host.")

let trace =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:"Stream datapath trace events (NIC tx/rx, faults, interrupt \
              decode) to stderr. Voluminous; combine with --quick.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record all trace events and write them as Chrome trace_event \
           JSON (open in about://tracing or ui.perfetto.dev).")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Write the end-of-run metrics registry snapshot as JSON.")

let write_file path content =
  let oc = open_out path in
  output_string oc content;
  output_char oc '\n';
  close_out oc

(* Install a recorder sink (takes precedence over --trace's stderr sink). *)
let setup_recorder () =
  let r = Sim.Trace.Recorder.create () in
  Sim.Trace.set_sink (Some (Sim.Trace.Recorder.sink r));
  r

let name_processes recorder xen =
  Sim.Trace.Recorder.set_process_name recorder ~pid:0 "hypervisor";
  List.iter
    (fun d ->
      Sim.Trace.Recorder.set_process_name recorder
        ~pid:(Xen.Domain.id d + 1)
        (Xen.Domain.name d))
    (Xen.Hypervisor.domains xen)

let emit_artifacts ~recorder ~trace_out ~metrics_out tb =
  (match recorder, trace_out with
  | Some r, Some path ->
      name_processes r tb.Experiments.Testbed.xen;
      write_file path (Sim.Trace.Recorder.to_chrome_string r);
      Format.printf "trace: %s (%d events%s)@." path
        (Sim.Trace.Recorder.count r)
        (let d = Sim.Trace.Recorder.dropped r in
         if d > 0 then Printf.sprintf ", %d dropped" d else "")
  | _ -> ());
  match metrics_out with
  | Some path ->
      write_file path
        (Sim.Json.to_string
           (Sim.Metrics.to_json tb.Experiments.Testbed.metrics));
      Format.printf "metrics: %s (%d series)@." path
        (Sim.Metrics.size tb.Experiments.Testbed.metrics)
  | None -> ()

(* [host_path p i] derives host [i]'s artifact path from [p]:
   "m.json" -> "m.host0.json". *)
let host_path path i =
  match Filename.extension path with
  | "" -> Printf.sprintf "%s.host%d" path i
  | ext -> Printf.sprintf "%s.host%d%s" (Filename.remove_extension path) i ext

(* ---- run one experiment ---- *)

let build_cfg system nic pattern guests nics cpus protection materialize seed =
  {
    Experiments.Config.default with
    Experiments.Config.system;
    nic;
    pattern;
    guests;
    nics;
    cpus;
    protection;
    materialize;
    seed;
  }

let print_measurement m =
  Format.printf "%a@." Experiments.Run.pp m;
  Format.printf
    "drops=%d faults=%d integrity_failures=%d fairness=%.3f sim_events=%d@."
    m.Experiments.Run.rx_drops m.Experiments.Run.faults
    m.Experiments.Run.integrity_failures m.Experiments.Run.fairness
    m.Experiments.Run.events_fired

(* [--hosts K] runs K independent replicas one after the other, each a
   plain single-host run of [Config.host cfg i] with its own trace sink
   and its own artifact files. *)
let run_cmd =
  let run quick system nic pattern guests nics cpus protection materialize seed
      trace trace_out metrics_out hosts =
    let cfg =
      build_cfg system nic pattern guests nics cpus protection materialize seed
    in
    for i = 0 to hosts - 1 do
      let path p = if hosts = 1 then p else host_path p i in
      let trace_out = Option.map path trace_out in
      if trace then
        Sim.Trace.set_sink
          (Some (Sim.Trace.formatter_sink Format.err_formatter));
      let recorder =
        match trace_out with Some _ -> Some (setup_recorder ()) | None -> None
      in
      let m, tb =
        Experiments.Run.run_tb ~quick (Experiments.Config.host cfg i)
      in
      Sim.Trace.set_sink None;
      if hosts = 1 then print_measurement m
      else Format.printf "host %d | %a@." i Experiments.Run.pp m;
      emit_artifacts ~recorder ~trace_out
        ~metrics_out:(Option.map path metrics_out) tb
    done
  in
  let doc = "Run a single experiment and print its measurement." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ quick $ system $ nic $ pattern $ guests $ nics $ cpus
      $ protection $ materialize $ seed $ trace $ trace_out $ metrics_out
      $ hosts)

(* ---- trace: run an experiment purely to produce observability output ---- *)

let trace_cmd =
  let run quick system nic pattern guests nics cpus protection materialize seed
      trace_out metrics_out =
    let recorder = Some (setup_recorder ()) in
    let cfg =
      build_cfg system nic pattern guests nics cpus protection materialize seed
    in
    let m, tb = Experiments.Run.run_tb ~quick cfg in
    Sim.Trace.set_sink None;
    print_measurement m;
    emit_artifacts ~recorder ~trace_out:(Some trace_out)
      ~metrics_out:(Some metrics_out) tb
  in
  let trace_out_pos =
    Arg.(
      value
      & opt string "cdna-trace.json"
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Output path for the Chrome trace_event JSON.")
  in
  let metrics_out_pos =
    Arg.(
      value
      & opt string "cdna-metrics.json"
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Output path for the metrics snapshot JSON.")
  in
  let doc =
    "Run a single experiment with full tracing enabled and write a Chrome \
     trace_event JSON (load in about://tracing or ui.perfetto.dev) plus a \
     metrics snapshot JSON."
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const run $ quick $ system $ nic $ pattern $ guests $ nics $ cpus
      $ protection $ materialize $ seed $ trace_out_pos $ metrics_out_pos)

(* ---- tables ---- *)

let table_cmd =
  let run quick which csv =
    match (which, csv) with
    | 0, true -> `Error (false, "--csv needs a specific table number")
    | 0, false -> `Ok (Experiments.Tables.print_all ~quick ())
    | n, _ ->
        let t = List.nth Experiments.Tables.tables (n - 1) in
        `Ok
          (if csv then print_string (t.Experiments.Tables.csv ~quick)
           else t.Experiments.Tables.print ~quick)
  in
  let which =
    let numbers =
      List.init (List.length Experiments.Tables.tables + 1) (fun n ->
          (string_of_int n, n))
    in
    Arg.(
      value
      & pos 0 (enum numbers) 0
      & info [] ~docv:"N" ~doc:"Table number 1-4 (0 or omitted = all).")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV rows.") in
  let doc = "Reproduce one of the paper's tables (or all)." in
  Cmd.v (Cmd.info "table" ~doc) Term.(ret (const run $ quick $ which $ csv))

(* ---- figures ---- *)

let figures =
  [
    ( 3,
      ( "Figure 3: transmit scaling",
        Workload.Pattern.Tx,
        Experiments.Figures.figure3 ) );
    ( 4,
      ( "Figure 4: receive scaling",
        Workload.Pattern.Rx,
        Experiments.Figures.figure4 ) );
  ]

let figure_cmd =
  let run quick which csv =
    let title, pattern, figure = List.assoc which figures in
    let points = figure ~quick () in
    if csv then print_string (Experiments.Figures.csv points)
    else Experiments.Figures.print_figure ~title ~pattern points
  in
  let which =
    let numbers = List.map (fun (n, _) -> (string_of_int n, n)) figures in
    Arg.(
      required
      & pos 0 (some (enum numbers)) None
      & info [] ~docv:"N" ~doc:"Figure 3 or 4.")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV series.") in
  let doc = "Reproduce one of the paper's scaling figures." in
  Cmd.v (Cmd.info "figure" ~doc) Term.(const run $ quick $ which $ csv)

(* ---- scale-guests: oversubscription sweep beyond the paper ---- *)

let scale_guests_cmd =
  let run quick pattern preset guest_counts cpu_counts csv chart_cpus =
    match chart_cpus with
    | Some c when not (List.mem c cpu_counts) ->
        `Error (false, Printf.sprintf "--chart %d is not one of --cpu-counts" c)
    | _ ->
        let pattern, slice =
          match preset with
          | Some `Rx_heavy ->
              (Workload.Pattern.Rx, Some Experiments.Scaling.rx_heavy_slice)
          | None -> (pattern, None)
        in
        let points =
          Experiments.Scaling.sweep ~quick ~pattern ?slice ~guest_counts
            ~cpu_counts ()
        in
        if csv then print_string (Experiments.Scaling.csv points)
        else begin
          print_endline
            "Guest scaling past the 32 hardware contexts (CDNA pages \
             contexts; Xen bridges in software):";
          print_newline ();
          Experiments.Scaling.print_table points;
          Option.iter
            (fun c ->
              print_newline ();
              print_string
                (Experiments.Figures.chart
                   (List.filter
                      (fun p -> Experiments.Scaling.cpus p = c)
                      points)))
            chart_cpus
        end;
        `Ok ()
  in
  let guest_counts =
    Arg.(
      value
      & opt count_list_conv Experiments.Scaling.default_guest_counts
      & info [ "guest-counts" ] ~docv:"N,N,..."
          ~doc:"Guest counts to sweep (default 8..256).")
  in
  let cpu_counts =
    Arg.(
      value
      & opt count_list_conv Experiments.Scaling.default_cpu_counts
      & info [ "cpu-counts" ] ~docv:"N,N,..."
          ~doc:"Host CPU counts to sweep (default 1,2,4).")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV rows.") in
  let chart_cpus =
    Arg.(
      value
      & opt (some int) None
      & info [ "chart" ] ~docv:"CPUS"
          ~doc:"Also draw the ASCII chart for this CPU count's series.")
  in
  let preset =
    let parse = function
      | "rx-heavy" -> Ok (Some `Rx_heavy)
      | s -> Error (`Msg ("unknown preset: " ^ s))
    in
    let print ppf = function
      | Some `Rx_heavy -> Format.pp_print_string ppf "rx-heavy"
      | None -> ()
    in
    Arg.(
      value
      & opt (conv (parse, print)) None
      & info [ "preset" ] ~docv:"PRESET"
          ~doc:
            "Workload preset. 'rx-heavy': receive-dominated traffic with a \
             100 us scheduler slice (vs 1 ms default) — maximum context-swap \
             pressure, probing for a CDNA/Xen crossover.")
  in
  let doc =
    "Sweep guest counts through and past the NIC's 32 hardware contexts \
     (hypervisor context paging), CDNA vs Xen software I/O, on 1..N host \
     CPUs; reports throughput, context-swap counts and the crossover where \
     swap overhead eats CDNA's advantage."
  in
  Cmd.v
    (Cmd.info "scale-guests" ~doc)
    Term.(
      ret
        (const run $ quick $ pattern $ preset $ guest_counts $ cpu_counts $ csv
       $ chart_cpus))

(* ---- scale: open-loop million-flow sweep ---- *)

let scale_cmd =
  let run quick scenario seed flow_counts csv chart =
    let points =
      Experiments.Flows.sweep ~quick ~scenario ~seed ~flow_counts ()
    in
    if csv then print_string (Experiments.Flows.csv points)
    else begin
      print_endline
        "Open-loop flow scaling (standing population + ~1.05x CDNA-capacity \
         churn; identical offered load for both systems):";
      print_newline ();
      Experiments.Flows.print_table points;
      if chart then begin
        print_newline ();
        print_string (Experiments.Flows.chart points)
      end
    end
  in
  let scenario =
    let parse s =
      match Experiments.Flows.scenario_of_string s with
      | Some sc -> Ok sc
      | None -> Error (`Msg ("unknown scenario: " ^ s))
    in
    let print ppf sc =
      Format.pp_print_string ppf (Experiments.Flows.scenario_to_string sc)
    in
    Arg.(
      value
      & opt (conv (parse, print)) Experiments.Flows.Normal
      & info [ "scenario" ] ~docv:"SCENARIO"
          ~doc:
            "Traffic scenario: normal (Poisson + bounded-Pareto sizes), \
             syn-flood (half embryonic SYNs at 8x rate), churn (tiny flows \
             in on/off bursts), or incast (64-way fan-in).")
  in
  let flow_counts =
    Arg.(
      value
      & opt
          (int_list_conv ~what:"int" integer)
          Experiments.Flows.default_flow_counts
      & info [ "flow-counts" ] ~docv:"N,N,..."
          ~doc:"Standing concurrent-flow counts to sweep (default 10^3..10^6).")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV rows.") in
  let chart =
    Arg.(
      value & flag
      & info [ "chart" ] ~doc:"Also draw the throughput ASCII chart.")
  in
  let doc =
    "Open-loop flow scaling 10^3..10^6 concurrent flows, Xen software vs \
     CDNA: heavy-tailed sizes, Poisson/bursty arrivals, SYN-flood and churn \
     scenarios; reports throughput and p50/p99/p999 per-flow tail latency. \
     Flow state is flat preallocated arrays (zero steady-state allocation)."
  in
  Cmd.v (Cmd.info "scale" ~doc)
    Term.(
      const run $ quick $ scenario $ seed $ flow_counts $ csv $ chart)

(* ---- verify ---- *)

let verify_cmd =
  let run quick =
    print_endline "Checking the paper's headline claims against the simulation:";
    print_newline ();
    let ok = Experiments.Claims.print (Experiments.Claims.verify ~quick ()) in
    exit (if ok then 0 else 1)
  in
  let doc = "Self-check: verify the paper's headline claims hold (exit 1 if not)." in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ quick)

(* ---- extensions ---- *)

let extension_cmd =
  let run quick = Experiments.Extension.print_all ~quick () in
  let doc = "Run the beyond-the-paper extension experiments (latency, bidirectional)." in
  Cmd.v (Cmd.info "extension" ~doc) Term.(const run $ quick)

(* ---- protection coverage ---- *)

let protection_cmd =
  let run quick seed trace =
    if trace then
      Sim.Trace.set_sink (Some (Sim.Trace.formatter_sink Format.err_formatter));
    Experiments.Protection_coverage.print
      (Experiments.Protection_coverage.sweep ~quick ~seed ())
  in
  let doc =
    "Fault-injection sweep: malicious-driver attacks and injected bus/link \
     faults against every protection mode, reporting detection, leakage and \
     containment."
  in
  Cmd.v (Cmd.info "protection" ~doc) Term.(const run $ quick $ seed $ trace)

let main =
  let doc =
    "Reproduction of 'Concurrent Direct Network Access for Virtual Machine \
     Monitors' (HPCA 2007)"
  in
  Cmd.group (Cmd.info "cdna_sim" ~doc)
    [
      run_cmd;
      trace_cmd;
      table_cmd;
      figure_cmd;
      scale_guests_cmd;
      scale_cmd;
      extension_cmd;
      protection_cmd;
      verify_cmd;
    ]

let () = exit (Cmd.eval main)
