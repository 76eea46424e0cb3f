(* End-to-end benchmark of the simulator itself.

   Each workload runs its unit (one closed-loop job: one process, one
   thread, one unit after another) for --seconds and reports wall time,
   CPU time, set-up time and engine event rate over those units, plus
   the process's peak RSS. With --trace 1 it also runs one unit under a
   Sim.Trace sink that charges wall time to the layer of the previous
   trace record, and reports per-phase times, per-layer counts, GC
   figures and the traced layer shares.

     dune exec perfbench/e2e.exe -- --seed 42        # every workload
     dune exec perfbench/e2e.exe -- --workload xen-rx-24g --seed 7 \
       --seconds 25 --trace 1                        # one workload

   Without --workload the program re-runs itself once per workload, so
   peak RSS and GC counters belong to one workload. Every metric is
   printed as "workload metric value unit"; the last line is a JSON
   object {correct, attempted, failed, metrics} whose metrics are those
   BENCHMARK.json names (end_to_end, or per_layer with --trace 1). The
   full result goes to perfbench/out/. See README.md for the workloads,
   metrics and layer map. *)

let clock () = Monotonic_clock.now ()
let secs t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9

let cpu_time () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [q]-quantile with linear interpolation between order statistics. *)
let quantile q = function
  | [] -> Float.nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let k = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float k in
      let j = min (i + 1) (Array.length a - 1) in
      a.(i) +. ((a.(j) -. a.(i)) *. (k -. float_of_int i))

let median = quantile 0.5

let ratio a b = if b > 0. then a /. b else 0.
let out_dir = Filename.concat "perfbench" "out"

(* ---------- GC pause time (traced run only) ----------

   Runtime_events is started just before the traced unit, so the
   untraced units pay nothing for it. A pause is the union of the
   intervals the runtime spends in any collection phase, whether those
   phases nest or follow each other. *)

module Gc_pauses = struct
  let depth = ref 0
  let since = ref 0L
  let total_ns = ref 0L
  let lost = ref 0
  let cursor = ref None

  let is_pause (p : Runtime_events.runtime_phase) =
    match p with
    | EV_MINOR | EV_MAJOR | EV_MAJOR_SLICE | EV_EXPLICIT_GC_MINOR
    | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_MAJOR_SLICE
    | EV_EXPLICIT_GC_FULL_MAJOR | EV_EXPLICIT_GC_COMPACT ->
        true
    | _ -> false

  let callbacks =
    let ts t = Runtime_events.Timestamp.to_int64 t in
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ t p ->
        if is_pause p then begin
          if !depth = 0 then since := ts t;
          incr depth
        end)
      ~runtime_end:(fun _ t p ->
        if is_pause p && !depth > 0 then begin
          decr depth;
          if !depth = 0 then
            total_ns := Int64.add !total_ns (Int64.sub (ts t) !since)
        end)
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let poll () =
    Option.iter
      (fun c -> ignore (Runtime_events.read_poll c callbacks None))
      !cursor

  let start () =
    Runtime_events.start ();
    let c = Runtime_events.create_cursor None in
    (* Drop whatever the ring held before the traced unit. *)
    ignore (Runtime_events.read_poll c (Runtime_events.Callbacks.create ()) None);
    cursor := Some c

  let stop () =
    poll ();
    Runtime_events.pause ();
    Option.iter Runtime_events.free_cursor !cursor;
    cursor := None

  let seconds () = Int64.to_float !total_ns *. 1e-9
end

(* ---------- Layer attribution of wall time ----------

   On each record the sink reads the clock and charges the time since
   the previous record to the previous record's layer; time before a
   phase's first record is [untraced]. The sink's own time is excluded:
   the next segment starts when the sink returns. Totals live in one
   flat (phase, layer) array, so tracing allocates nothing per record
   beyond what the emit sites build. *)

module Tracer = struct
  let layers =
    [|
      "untraced"; "xen.irq"; "guestos.dom0"; "guestos.guest"; "core.hyp";
      "nic.dp"; "bus.dma"; "xen.hypervisor";
    |]

  let phases =
    [|
      "build"; "warmup"; "reset"; "measure"; "collect"; "verify"; "figure3";
      "flows_xen"; "flows_cdna";
    |]

  let n_layers = Array.length layers

  (* [sched] pids: 0 is the hypervisor's interrupt context, 1 the first
     domain created (the driver domain, or the native OS), >= 2 the
     guests. Every tag without a fixed meaning names a NIC instance. *)
  let layer_of (ev : Sim.Trace.event) =
    match ev.Sim.Trace.tag with
    | "sched" -> if ev.pid = 0 then 1 else if ev.pid = 1 then 2 else 3
    | "cdna-hyp" -> 4
    | "dma" -> 6
    | "hypercall" | "irq" -> 7
    | _ -> 5

  type t = {
    ns : int array;  (** [phase * n_layers + layer] *)
    mutable phase : int;  (** -1 outside a phase *)
    mutable layer : int;
    mutable last : int64;
    mutable records : int;
    mutable spans : (string * string * int64 * int64) list;
        (** name, parent, start, end *)
  }

  let create () =
    {
      ns = Array.make (Array.length phases * n_layers) 0;
      phase = -1;
      layer = 0;
      last = 0L;
      records = 0;
      spans = [];
    }

  let charge t now =
    if t.phase >= 0 then begin
      let i = (t.phase * n_layers) + t.layer in
      t.ns.(i) <- t.ns.(i) + Int64.to_int (Int64.sub now t.last)
    end

  let sink t (ev : Sim.Trace.event) =
    charge t (clock ());
    t.layer <- layer_of ev;
    t.records <- t.records + 1;
    if t.records land 4095 = 0 then Gc_pauses.poll ();
    t.last <- clock ()

  let index name =
    let rec go i = if phases.(i) = name then i else go (i + 1) in
    go 0

  let enter t name now =
    t.phase <- index name;
    t.layer <- 0;
    t.last <- now

  let leave t name t0 t1 =
    charge t t1;
    t.phase <- -1;
    t.spans <- (name, "unit", t0, t1) :: t.spans;
    Gc_pauses.poll ()

  let phase_ns t p = Array.sub t.ns (p * n_layers) n_layers

  (* Layer shares of one phase's (or, with every phase, the unit's)
     sink-excluded wall time. *)
  let shares t ps =
    let sum = Array.make n_layers 0 in
    List.iter
      (fun p -> Array.iteri (fun l v -> sum.(l) <- sum.(l) + v) (phase_ns t p))
      ps;
    let total = float_of_int (Array.fold_left ( + ) 0 sum) in
    Array.map (fun v -> ratio (float_of_int v) total) sum

  let chrome_json t =
    let origin =
      List.fold_left (fun m (_, _, s, _) -> Int64.min m s) Int64.max_int t.spans
    in
    let us a b = Sim.Json.Float (Int64.to_float (Int64.sub b a) /. 1e3) in
    Sim.Json.Obj
      [
        ( "traceEvents",
          Sim.Json.List
            (List.rev_map
               (fun (name, parent, s, e) ->
                 Sim.Json.Obj
                   [
                     ("name", Sim.Json.String name);
                     ("cat", Sim.Json.String "phase");
                     ("ph", Sim.Json.String "X");
                     ("ts", us origin s);
                     ("dur", us s e);
                     ("pid", Sim.Json.Int 0);
                     ("tid", Sim.Json.Int 0);
                     ("args", Sim.Json.Obj [ ("parent", Sim.Json.String parent) ]);
                   ])
               t.spans) );
      ]
end

(* ---------- Units ---------- *)

type ctx = {
  tracer : Tracer.t option;
  mutable phases : (string * float * float) list;
      (** name, wall seconds, minor words; newest first *)
}

(* Time one public call from outside, on the monotonic clock. *)
let phase ctx name f =
  let w0 = Gc.minor_words () in
  let t0 = clock () in
  Option.iter (fun tr -> Tracer.enter tr name t0) ctx.tracer;
  let r = f () in
  let t1 = clock () in
  let w1 = Gc.minor_words () in
  Option.iter (fun tr -> Tracer.leave tr name t0 t1) ctx.tracer;
  ctx.phases <- (name, secs t0 t1, w1 -. w0) :: ctx.phases;
  r

type outcome = {
  events : int;  (** numerator of events_per_s *)
  counts : (string * float) list;
  rendered : string;  (** must be byte-identical across reps *)
  errors : string list;
}

(* Per-layer counts a unit may report, with their units; a workload
   reports 0 for a layer it does not exercise. *)
let count_units =
  [
    ("sim.engine.events", "count");
    ("host.cpu.ctx_switches", "count");
    ("bus.dma.transfers", "count");
    ("bus.dma.bytes", "bytes");
    ("nic.dp.frames", "count");
    ("nic.dp.drops", "count");
    ("nic.dp.faults", "count");
    ("nic.mailbox.events", "count");
    ("nic.coalesce.fire_ratio", "ratio");
    ("core.hyp.enqueue_calls", "count");
    ("core.hyp.ctx_swaps", "count");
    ("core.hyp.swaps_per_kframe", "ratio");
    ("xen.hypercalls", "count");
    ("xen.phys_irqs", "count");
    ("xen.virqs", "count");
    ("xen.grant_flips", "count");
    ("guestos.netback.runs", "count");
    ("guestos.netback.pkts", "count");
    ("guestos.netback.pkts_per_run", "ratio");
    ("guestos.netback.rx_dropped", "count");
    ("workload.goodput_mbps", "Mb/s");
    ("workload.jain", "ratio");
    ("workload.flows.xen.served_pkts", "count");
    ("workload.flows.xen.rejected", "count");
    ("workload.flows.xen.peak_live", "count");
    ("workload.flows.cdna.served_pkts", "count");
    ("workload.flows.cdna.rejected", "count");
    ("workload.flows.cdna.peak_live", "count");
  ]

(* Numeric series of the testbed's metrics registry, summed over labels,
   plus the grant-flip ledger (not in the registry). *)
let counters (tb : Experiments.Testbed.t) =
  let sums = Hashtbl.create 64 in
  let add k v =
    Hashtbl.replace sums k (v +. Option.value ~default:0. (Hashtbl.find_opt sums k))
  in
  List.iter
    (fun (key, v) ->
      let base =
        match String.index_opt key '{' with
        | Some i -> String.sub key 0 i
        | None -> key
      in
      match v with
      | Sim.Json.Int i -> add base (float_of_int i)
      | Sim.Json.Float f -> add base f
      | _ -> ())
    (Sim.Metrics.snapshot tb.Experiments.Testbed.metrics);
  add "grant_flips"
    (float_of_int (Xen.Grant_table.flips tb.Experiments.Testbed.grant_table));
  fun k -> Option.value ~default:0. (Hashtbl.find_opt sums k)

let testbed_unit (cfg : Experiments.Config.t) ctx =
  let open Experiments in
  let tb = phase ctx "build" (fun () -> Testbed.build cfg) in
  phase ctx "warmup" (fun () ->
      tb.Testbed.start ();
      Sim.Engine.run tb.Testbed.engine ~until:cfg.Config.warmup);
  let b = phase ctx "reset" (fun () -> Run.reset_after_warmup cfg tb) in
  let before = counters tb in
  let stop = Sim.Time.add cfg.Config.warmup cfg.Config.duration in
  phase ctx "measure" (fun () -> Sim.Engine.run tb.Testbed.engine ~until:stop);
  let after = counters tb in
  let m = phase ctx "collect" (fun () -> Run.collect cfg tb b) in
  let d k = after k -. before k in
  let frames = d "nic.tx_frames" +. d "nic.rx_frames" in
  let swaps = d "cdna.ctx_swaps" in
  let nb_pkts = d "netback.tx_forwarded" +. d "netback.rx_delivered" in
  let goodput = Run.primary_mbps m in
  let errors =
    List.filter_map
      (fun (bad, msg) -> if bad then Some msg else None)
      [
        (m.Run.faults <> 0, Printf.sprintf "%d protection faults" m.Run.faults);
        ( m.Run.integrity_failures <> 0,
          Printf.sprintf "%d integrity failures" m.Run.integrity_failures );
        (not (goodput > 0.), "no goodput");
        ( cfg.Config.system = Config.Cdna_sys
          && cfg.Config.guests > Cdna.Cnic.num_contexts
          && swaps <= 0.,
          "no context swaps" );
      ]
  in
  {
    events = m.Run.events_fired;
    counts =
      [
        ("sim.engine.events", float_of_int m.Run.events_fired);
        ("host.cpu.ctx_switches", d "cpu.ctx_switches");
        ("bus.dma.transfers", d "dma.transfers");
        ("bus.dma.bytes", d "dma.bytes_moved");
        ("nic.dp.frames", frames);
        ("nic.dp.drops", d "nic.rx_overflow_drops" +. d "nic.rx_no_ctx_drops");
        ("nic.dp.faults", d "nic.faults");
        ("nic.mailbox.events", d "mailbox.events");
        ( "nic.coalesce.fire_ratio",
          ratio (d "coalesce.fired") (d "coalesce.requests") );
        ("core.hyp.enqueue_calls", d "cdna.enqueue_calls");
        ("core.hyp.ctx_swaps", swaps);
        ("core.hyp.swaps_per_kframe", 1000. *. ratio swaps frames);
        ("xen.hypercalls", d "xen.hypercalls");
        ("xen.phys_irqs", d "xen.phys_irqs");
        ("xen.virqs", d "xen.domain.virqs");
        ("xen.grant_flips", d "grant_flips");
        ("guestos.netback.runs", d "netback.runs");
        ("guestos.netback.pkts", nb_pkts);
        ("guestos.netback.pkts_per_run", ratio nb_pkts (d "netback.runs"));
        ("guestos.netback.rx_dropped", d "netback.rx_dropped");
        ("workload.goodput_mbps", goodput);
        ("workload.jain", m.Run.fairness);
      ];
    rendered =
      Format.asprintf "%a@.%s" Run.pp m
        (Sim.Metrics.to_string tb.Testbed.metrics);
    errors;
  }

(* What users wait on to regenerate the paper's claims and figure 3:
   27 short, independent testbeds. The library fixes their seed. *)
let sweep_unit ctx =
  let open Experiments in
  let verdicts = phase ctx "verify" (fun () -> Claims.verify ()) in
  let points = phase ctx "figure3" (fun () -> Figures.figure3 ()) in
  let ms = List.concat_map (fun p -> [ p.Figures.xen; p.Figures.cdna ]) points in
  let errors =
    List.filter_map
      (fun v ->
        if v.Claims.pass then None else Some ("claim " ^ v.Claims.id ^ " fails"))
      verdicts
    @ List.filter_map
        (fun m ->
          if m.Run.faults = 0 && m.Run.integrity_failures = 0 then None
          else Some ("figure 3 point with faults: " ^ Config.describe m.Run.config))
        ms
  in
  {
    events = List.fold_left (fun a m -> a + m.Run.events_fired) 0 ms;
    counts = [];
    rendered =
      String.concat "\n"
        (List.map
           (fun v ->
             Printf.sprintf "%s %b %s" v.Claims.id v.Claims.pass
               v.Claims.measured)
           verdicts
        @ List.map (Format.asprintf "%a" Run.pp) ms);
    errors;
  }

let openloop_flows = 1_000_000

(* Open loop at 10^6 standing flows, no testbed: the flow table, the
   open-loop generator and the engine heap do all the work. The library
   does not expose its engine, so "events" here are served packets. *)
let openloop_unit ~seed ctx =
  let open Experiments in
  let side name system =
    phase ctx name (fun () ->
        Flows.measure ~flows:openloop_flows ~scenario:Flows.Normal ~seed system)
  in
  let x = side "flows_xen" Config.Xen_sw in
  let c = side "flows_cdna" Config.Cdna_sys in
  let counts_of label (s : Flows.side) =
    [
      ("workload.flows." ^ label ^ ".served_pkts", float_of_int s.Flows.served_pkts);
      ("workload.flows." ^ label ^ ".rejected", float_of_int s.Flows.rejected);
      ("workload.flows." ^ label ^ ".peak_live", float_of_int s.Flows.peak_live);
    ]
  in
  {
    events = x.Flows.served_pkts + c.Flows.served_pkts;
    counts = counts_of "xen" x @ counts_of "cdna" c;
    rendered = x.Flows.metrics_json ^ "\n" ^ c.Flows.metrics_json;
    errors =
      (if x.Flows.served_pkts > 0 && c.Flows.served_pkts > 0 then []
       else [ "a side served no packets" ]);
  }

(* ---------- Workloads ---------- *)

type workload = {
  name : string;
  window : string list;  (** phases whose wall time divides [events] *)
  setup : (seed:int -> unit) option;
      (** Set-up timed on its own, for workloads whose set-up happens
          inside a library call; otherwise set-up is the "build" phase. *)
  run : seed:int -> ctx -> outcome;
}

let testbed_workload name cfg =
  {
    name;
    window = [ "measure" ];
    setup = None;
    run = (fun ~seed -> testbed_unit (cfg seed));
  }

let workloads =
  let open Experiments in
  [
    {
      name = "paper-sweep";
      window = [ "figure3" ];
      (* Build figure 3's testbeds, which Figures.figure3 builds
         internally where they cannot be timed. *)
      setup =
        Some
          (fun ~seed:_ ->
            List.iter
              (fun guests ->
                List.iter
                  (fun (system, nic) ->
                    ignore
                      (Testbed.build
                         {
                           Config.default with
                           Config.nics = 2;
                           pattern = Workload.Pattern.Tx;
                           system;
                           nic;
                           guests;
                         }))
                  [
                    (Config.Xen_sw, Config.Intel);
                    (Config.Cdna_sys, Config.Ricenic);
                  ])
              Figures.paper_guest_counts);
      run = (fun ~seed:_ -> sweep_unit);
    };
    testbed_workload "xen-rx-24g" (fun seed ->
        {
          Config.default with
          Config.system = Config.Xen_sw;
          nic = Config.Intel;
          nics = 2;
          guests = 24;
          cpus = 1;
          pattern = Workload.Pattern.Rx;
          warmup = Sim.Time.ms 60;
          duration = Sim.Time.sec 8;
          seed;
        });
    testbed_workload "cdna-tx-64g" (fun seed ->
        {
          Config.default with
          Config.system = Config.Cdna_sys;
          nic = Config.Ricenic;
          nics = 2;
          guests = 2 * Cdna.Cnic.num_contexts;
          pattern = Workload.Pattern.Tx;
          duration = Sim.Time.sec 4;
          seed;
        });
    {
      name = "openloop-1m";
      window = [ "flows_xen"; "flows_cdna" ];
      (* The generator's creation and 10^6-flow preload: the part of
         Flows.measure before its engine runs (capacity as in Flows). *)
      setup =
        Some
          (fun ~seed ->
            let ol =
              Workload.Open_loop.create (Sim.Engine.create ())
                {
                  Workload.Open_loop.default with
                  Workload.Open_loop.capacity =
                    openloop_flows + (openloop_flows / 4) + 64;
                  seed;
                }
            in
            Workload.Open_loop.preload ol ~flows:openloop_flows);
      run = (fun ~seed -> openloop_unit ~seed);
    };
  ]

(* ---------- Measurement ---------- *)

type sample = {
  wall : float;
  cpu : float;
  phase_s : (string * float * float) list;
  minor_gcs : int;
  major_gcs : int;
  outcome : outcome;
}

let run_unit w ~seed ~tracer =
  (* Start from a collected heap, so that a unit does not pay for
     collecting the previous unit's testbed. *)
  Gc.compact ();
  let ctx = { tracer; phases = [] } in
  let g0 = Gc.quick_stat () in
  let c0 = cpu_time () in
  let t0 = clock () in
  let outcome = w.run ~seed ctx in
  let t1 = clock () in
  let c1 = cpu_time () in
  let g1 = Gc.quick_stat () in
  Option.iter
    (fun tr -> tr.Tracer.spans <- ("unit", "", t0, t1) :: tr.Tracer.spans)
    tracer;
  {
    wall = secs t0 t1;
    cpu = c1 -. c0;
    phase_s = ctx.phases;
    minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
    outcome;
  }

let phase_secs s name =
  List.fold_left (fun a (n, t, _) -> if n = name then a +. t else a) 0. s.phase_s

let window s w =
  List.fold_left
    (fun (t, words) (n, dt, dw) ->
      if List.mem n w.window then (t +. dt, words +. dw) else (t, words))
    (0., 0.) s.phase_s

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> Float.nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let min_reps = 3

(* One metric as measured: its samples (one per unit, or one in all) and
   the statistic reported for them. *)
type metric = {
  m_name : string;
  m_unit : string;
  value : float;
  values : float list;
}

let metric ?(stat = median) m_name m_unit values =
  { m_name; m_unit; value = stat values; values }

(* Wall-clock-driven metrics report the fast quartile of their units: the
   lower quartile of times, the upper quartile of rates. On a shared
   2-vCPU VM, neighbours slow whole stretches of a run by up to 70%, so a
   run's median tracks how much of it was contended, while its fast
   quartile tracks the simulator (README.md, "Run-to-run spread"). *)
let fast_time = quantile 0.25
let fast_rate = quantile 0.75

let run_workload w ~seed ~seconds ~trace =
  let setup_s =
    match w.setup with
    | None -> []
    | Some f ->
        List.init min_reps (fun _ ->
            Gc.compact ();
            let t0 = clock () in
            f ~seed;
            secs t0 (clock ()))
  in
  let attempted = ref 0 and failed = ref 0 and samples = ref [] in
  (* Peak RSS and heap top after set-up and the first unit: later units
     reuse a heap the allocator never fully returns, so a reading at the
     end would grow with the number of units that fit in the run. *)
  let memory = ref (Float.nan, Float.nan) in
  let attempt ~tracer =
    incr attempted;
    match run_unit w ~seed ~tracer with
    | s ->
        if !samples = [] then
          memory :=
            ( peak_rss_mb (),
              float_of_int
                ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
              /. 1048576. );
        samples := s :: !samples;
        Some s
    | exception e ->
        incr failed;
        Printf.printf "%s unit %d FAILED: %s\n%!" w.name !attempted
          (Printexc.to_string e);
        None
  in
  (* Closed loop: start another unit while it should finish in time. *)
  let start = clock () in
  let rec loop () =
    let spent = secs start (clock ()) in
    if !attempted < min_reps
       || spent +. (spent /. float_of_int !attempted) <= float_of_int seconds
    then begin
      ignore (attempt ~tracer:None);
      loop ()
    end
  in
  loop ();
  let untraced = List.rev !samples in
  let traced =
    if not trace then None
    else begin
      let tr = Tracer.create () in
      Gc_pauses.start ();
      Sim.Trace.set_sink (Some (Tracer.sink tr));
      let s =
        Fun.protect
          ~finally:(fun () ->
            Sim.Trace.set_sink None;
            Gc_pauses.stop ())
          (fun () -> attempt ~tracer:(Some tr))
      in
      Option.map (fun s -> (s, tr)) s
    end
  in
  let all = untraced @ Option.to_list (Option.map fst traced) in
  let errors =
    match all with
    | [] -> [ "every unit failed" ]
    | first :: _ ->
        List.concat
          (List.mapi
             (fun i s ->
               List.map (Printf.sprintf "rep %d: %s" (i + 1)) s.outcome.errors
               @
               if s.outcome.rendered = first.outcome.rendered then []
               else [ Printf.sprintf "rep %d renders differently from rep 1" (i + 1) ])
             all)
  in
  let per ?stat f u name = metric ?stat name u (List.map f untraced) in
  let one u name v = metric name u [ v ] in
  let wall = per ~stat:fast_time (fun s -> s.wall) "s" "wall_s" in
  let e2e =
    [
      wall;
      per ~stat:fast_time (fun s -> s.cpu) "s" "cpu_s";
      metric "setup_s" "s"
        (match w.setup with
        | Some _ -> setup_s
        | None -> List.map (fun s -> phase_secs s "build") untraced);
      per ~stat:fast_rate
        (fun s -> ratio (float_of_int s.outcome.events) (fst (window s w)))
        "events/s" "events_per_s";
      one "MB" "peak_rss_mb" (fst !memory);
    ]
  in
  let layer =
    List.map
      (fun p -> per (fun s -> phase_secs s p) "s" ("phase." ^ p ^ "_s"))
      (Array.to_list Tracer.phases)
    @ [ per (fun s -> ratio s.cpu s.wall) "ratio" "sweep.cpu_per_wall" ]
    @ List.map
        (fun (name, u) ->
          per
            (fun s -> Option.value ~default:0. (List.assoc_opt name s.outcome.counts))
            u name)
        count_units
    @ [
        per
          (fun s -> ratio (snd (window s w)) (float_of_int s.outcome.events))
          "words/event" "gc.minor_words_per_event";
        per (fun s -> float_of_int s.minor_gcs) "count" "gc.minor_collections";
        per (fun s -> float_of_int s.major_gcs) "count" "gc.major_collections";
        one "MB" "gc.heap_top_mb" (snd !memory);
      ]
    @
    match traced with
    | None -> []
    | Some (s, tr) ->
        let all_phases = List.init (Array.length Tracer.phases) Fun.id in
        let unit_shares = Tracer.shares tr all_phases in
        Array.to_list
          (Array.mapi
             (fun l name -> one "ratio" ("layer." ^ name ^ ".share") unit_shares.(l))
             Tracer.layers)
        @ [
            one "count" "trace.records" (float_of_int tr.Tracer.records);
            one "ratio" "trace.overhead" (ratio s.wall wall.value);
            one "s" "gc.pause_s" (Gc_pauses.seconds ());
          ]
        @ List.concat_map
            (fun p ->
              if Array.for_all (( = ) 0) (Tracer.phase_ns tr p) then []
              else
                let sh = Tracer.shares tr [ p ] in
                Array.to_list
                  (Array.mapi
                     (fun l name ->
                       one "ratio"
                         (Printf.sprintf "phase.%s.layer.%s.share"
                            Tracer.phases.(p) name)
                         sh.(l))
                     Tracer.layers))
            all_phases
  in
  let shares_errors =
    match traced with
    | None -> []
    | Some (_, tr) ->
        List.filter_map
          (fun p ->
            let ns = Tracer.phase_ns tr p in
            let sum = Array.fold_left ( +. ) 0. (Tracer.shares tr [ p ]) in
            if Array.exists (( <> ) 0) ns && Float.abs (sum -. 1.) > 0.01 then
              Some
                (Printf.sprintf "phase %s: layer shares sum to %.4f"
                   Tracer.phases.(p) sum)
            else None)
          (List.init (Array.length Tracer.phases) Fun.id)
  in
  if !Gc_pauses.lost > 0 then
    Printf.printf "%s warning: %d runtime events lost; gc.pause_s is a lower bound\n"
      w.name !Gc_pauses.lost;
  (e2e, layer, errors @ shares_errors, !attempted, !failed, Option.map snd traced)

(* ---------- Output ---------- *)

let benchmark_metric_names ~trace =
  if not (Sys.file_exists "BENCHMARK.json") then None
  else
    let ic = open_in_bin "BENCHMARK.json" in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match Sim.Json.parse text with
    | Error e -> failwith ("BENCHMARK.json: " ^ e)
    | Ok doc -> (
        match Sim.Json.member (if trace then "per_layer" else "end_to_end") doc with
        | Some (Sim.Json.List ms) ->
            Some
              (List.filter_map
                 (fun m ->
                   match Sim.Json.member "name" m with
                   | Some (Sim.Json.String n) -> Some n
                   | _ -> None)
                 ms)
        | _ -> None)

let write_json path json =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let oc = open_out_bin (Filename.concat out_dir path) in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Sim.Json.to_string json);
      output_char oc '\n')

let metric_json m =
  Sim.Json.Obj
    [
      ("value", Sim.Json.Float m.value);
      ("unit", Sim.Json.String m.m_unit);
      ("reps", Sim.Json.Int (List.length m.values));
      ("median", Sim.Json.Float (median m.values));
      ("min", Sim.Json.Float (quantile 0. m.values));
      ("max", Sim.Json.Float (quantile 1. m.values));
      ("values", Sim.Json.List (List.map (fun v -> Sim.Json.Float v) m.values));
    ]

let report w ~seed ~seconds ~trace =
  let e2e, layer, errors, attempted, failed, tracer =
    run_workload w ~seed ~seconds ~trace
  in
  let produced = if trace then layer else e2e in
  let print m =
    match m.values with
    | [ v ] -> Printf.printf "%s %s %.6g %s\n" w.name m.m_name v m.m_unit
    | vs ->
        Printf.printf "%s %s %.6g %s reps=%d median=%.6g min=%.6g max=%.6g\n"
          w.name m.m_name m.value m.m_unit (List.length vs) (median vs)
          (quantile 0. vs) (quantile 1. vs)
  in
  List.iter print e2e;
  if trace then List.iter print layer;
  Printf.printf "%s failed_share %.6g ratio\n" w.name
    (ratio (float_of_int failed) (float_of_int attempted));
  List.iter (Printf.printf "%s CHECK FAILED: %s\n" w.name) errors;
  let wanted =
    match benchmark_metric_names ~trace with
    | Some names -> names
    | None -> List.map (fun m -> m.m_name) produced
  in
  let missing =
    List.filter (fun n -> not (List.exists (fun m -> m.m_name = n) produced)) wanted
  in
  List.iter (Printf.printf "%s CHECK FAILED: metric %s not produced\n" w.name) missing;
  let correct = errors = [] && missing = [] in
  let tag = Printf.sprintf "%s-seed%d-trace%d" w.name seed (Bool.to_int trace) in
  write_json (tag ^ ".json")
    (Sim.Json.Obj
       [
         ("workload", Sim.Json.String w.name);
         ("seed", Sim.Json.Int seed);
         ("seconds", Sim.Json.Int seconds);
         ("trace", Sim.Json.Bool trace);
         ("nproc", Sim.Json.Int (Domain.recommended_domain_count ()));
         ("correct", Sim.Json.Bool correct);
         ("attempted", Sim.Json.Int attempted);
         ("failed", Sim.Json.Int failed);
         ("errors", Sim.Json.List (List.map (fun e -> Sim.Json.String e) errors));
         ( "metrics",
           Sim.Json.Obj
             (List.map (fun m -> (m.m_name, metric_json m)) (e2e @ layer)) );
       ]);
  Option.iter
    (fun tr -> write_json (tag ^ "-spans.json") (Tracer.chrome_json tr))
    tracer;
  print_endline
    (Sim.Json.to_string
       (Sim.Json.Obj
          [
            ("correct", Sim.Json.Bool correct);
            ("attempted", Sim.Json.Int attempted);
            ("failed", Sim.Json.Int failed);
            ( "metrics",
              Sim.Json.Obj
                (List.filter_map
                   (fun m ->
                     if List.mem m.m_name wanted then
                       Some
                         ( m.m_name,
                           Sim.Json.Obj
                             [
                               ("value", Sim.Json.Float m.value);
                               ("unit", Sim.Json.String m.m_unit);
                             ] )
                     else None)
                   produced) );
          ]));
  if not correct then exit 1

(* Run every workload, each in a fresh process of its own. *)
let run_all ~seed ~seconds ~trace =
  let codes =
    List.map
      (fun w ->
        let args =
          [|
            Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int seed;
            "--seconds"; string_of_int seconds; "--trace"; (if trace then "1" else "0");
          |]
        in
        let pid =
          Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
            Unix.stderr
        in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 2)
      workloads
  in
  exit (List.fold_left max 0 codes)

let () =
  let workload = ref None and seed = ref 42 and seconds = ref 25 and trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.String (fun s -> workload := Some s),
        " one of: " ^ String.concat ", " (List.map (fun w -> w.name) workloads) );
      ("--seed", Arg.Set_int seed, " input seed (default 42)");
      ("--seconds", Arg.Set_int seconds, " measuring time per workload (default 25)");
      ("--trace", Arg.Set_int trace, " 1 = add the traced unit and per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";
  let trace = !trace <> 0 in
  match !workload with
  | None -> run_all ~seed:!seed ~seconds:!seconds ~trace
  | Some name -> (
      match List.find_opt (fun w -> w.name = name) workloads with
      | Some w -> report w ~seed:!seed ~seconds:!seconds ~trace
      | None ->
          prerr_endline ("unknown workload " ^ name);
          exit 2)
