(* Simulator benchmarks: Bechamel micro-benchmarks of the core
   mechanisms (descriptor serialization, mailbox bit-vector decode,
   sequence-number checks, CRC-32, the event engine, grant flips, the
   flow table), plus the regression gates that `dune runtest` runs.

   Paper regeneration lives in `cdna_sim` (`table`, `figure`,
   `extension`, `verify`); `perfbench/e2e.exe` times it end to end.

   Run the micro set with:      dune exec bench/main.exe
   Micro results as JSON:       dune exec bench/main.exe -- --json FILE [--gate BASELINE]
   Macro run timing:            dune exec bench/main.exe -- --macro FILE [--macro-gate BASELINE]
   Metrics-export smoke:        dune exec bench/main.exe -- --smoke FILE *)

open Bechamel
open Toolkit

(* ---------- Micro-benchmark subjects ----------

   Plain named closures, so the same subject feeds both the bechamel
   timing run and the direct [Gc.minor_words] measurement of the --json
   mode. *)

let engine_events_fn () =
  let e = Sim.Engine.create () in
  for i = 1 to 10_000 do
    ignore (Sim.Engine.schedule e ~delay:i (fun () -> ()))
  done;
  ignore (Sim.Engine.run_to_completion e)

let heap_churn_fn () =
  let h = Sim.Heap.create ~dummy:0 () in
  for i = 0 to 999 do
    let v = (i * 7919) land 1023 in
    Sim.Heap.push h ~key:v v
  done;
  while not (Sim.Heap.is_empty h) do
    ignore (Sim.Heap.pop h)
  done

let crc32_fn =
  let payload = Ethernet.Frame.materialize_payload ~seed:1 ~len:1500 in
  fun () -> ignore (Ethernet.Crc32.digest payload)

let materialize_fn () =
  ignore (Ethernet.Frame.materialize_payload ~seed:7 ~len:1500)

let descriptor_roundtrip_fn =
  let mem = Memory.Phys_mem.create ~total_pages:4 () in
  let d = { Memory.Dma_desc.addr = 0x1000; len = 1500; flags = 1; seqno = 42 } in
  fun () ->
    Memory.Dma_desc.write mem ~at:64 d;
    ignore (Memory.Dma_desc.read mem ~at:64)

let mailbox_decode_fn =
  let mb = Nic.Mailbox.create ~contexts:32 ~on_event:ignore in
  let mappings =
    Array.init 32 (fun ctx -> Bus.Mmio.map (Nic.Mailbox.region mb ~ctx))
  in
  fun () ->
    for ctx = 0 to 31 do
      Bus.Mmio.write32 mappings.(ctx) ~offset:20 ctx
    done;
    let rec drain () =
      match Nic.Mailbox.next_event mb with
      | Some (ctx, mbox) ->
          Nic.Mailbox.clear_event mb ~ctx ~mbox;
          drain ()
      | None -> ()
    in
    drain ()

let seqno_check_fn () =
  let seq = ref 0 in
  for _ = 1 to 1000 do
    assert (Cdna.Seqno.continuous ~expected:!seq ~got:!seq);
    seq := Cdna.Seqno.next !seq
  done

let grant_flip_fn =
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let mem = Memory.Phys_mem.create ~total_pages:64 () in
  let hyp = Xen.Hypervisor.create engine ~cpu ~mem () in
  let gnt = Xen.Grant_table.create hyp in
  let a =
    Xen.Hypervisor.create_domain hyp ~name:"a" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:8
  in
  let b =
    Xen.Hypervisor.create_domain hyp ~name:"b" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:8
  in
  let page = List.hd (Xen.Domain.pages a) in
  let here = ref a and there = ref b in
  fun () ->
    (match Xen.Grant_table.flip gnt ~src:!here ~dst:!there page with
    | Ok () -> ()
    | Error _ -> assert false);
    let t = !here in
    here := !there;
    there := t

let bridge_route_fn =
  let b = Guestos.Bridge.create () in
  let ports = Array.init 26 (fun i -> Guestos.Bridge.add_port b i) in
  Array.iteri
    (fun i p -> Guestos.Bridge.learn b p (Ethernet.Mac_addr.make i))
    ports;
  let frame =
    Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 0)
      ~dst:(Ethernet.Mac_addr.make 13) ~kind:Ethernet.Frame.Data ~flow:0 ~seq:0
      ~payload_len:1500 ~payload_seed:0 ()
  in
  fun () -> ignore (Guestos.Bridge.route b ~ingress:ports.(0) frame)

(* One full admit -> drain cycle over a million-flow table: 1M inserts
   through the open-addressing probe, then 1M find+complete with
   backward-shift deletion. The table is preallocated once (~70 MB of
   flat arrays); the per-run loop is the [@cdna.hot] admission path and
   must show minor_words_per_run = 0 in the --json output. *)
let flow_admit_1m_fn =
  let n = 1_000_000 in
  let t = Workload.Flow_table.create ~capacity:n in
  fun () ->
    for i = 0 to n - 1 do
      let key =
        Workload.Flow_table.pack ~src:(i land 0x7FFF) ~dst:(i lsr 15)
      in
      assert (Workload.Flow_table.insert t ~key ~pkts:1 ~now:i >= 0)
    done;
    for i = 0 to n - 1 do
      let key =
        Workload.Flow_table.pack ~src:(i land 0x7FFF) ~dst:(i lsr 15)
      in
      let slot = Workload.Flow_table.find t ~key in
      ignore (Workload.Flow_table.complete t ~slot ~now:(n + i))
    done

(* Single-scan p50..p99.99 read-out of a populated histogram via
   [quantiles_into] (preallocated output; allocation-free). *)
let histogram_multi_quantile_fn =
  let h = Sim.Stats.Histogram.create () in
  let s = ref 424242 in
  for _ = 1 to 100_000 do
    s := Workload.Pattern.xorshift !s;
    Sim.Stats.Histogram.add h (!s land 0xFFFF_FFF)
  done;
  let qs = [| 10.; 25.; 50.; 75.; 90.; 99.; 99.9; 99.99 |] in
  let out = Array.make (Array.length qs) 0 in
  fun () -> Sim.Stats.Histogram.quantiles_into h qs out

let micro_subjects =
  [
    ("micro/engine-10k-events", engine_events_fn);
    ("micro/heap-push-pop-1k", heap_churn_fn);
    ("micro/crc32-1500B", crc32_fn);
    ("micro/materialize-1500B", materialize_fn);
    ("micro/descriptor-write-read", descriptor_roundtrip_fn);
    ("micro/mailbox-write-decode-32ctx", mailbox_decode_fn);
    ("micro/seqno-check-1k", seqno_check_fn);
    ("micro/grant-flip", grant_flip_fn);
    ("micro/bridge-route-26-ports", bridge_route_fn);
    ("micro/flow-admit-1M", flow_admit_1m_fn);
    ("micro/histogram-multi-quantile", histogram_multi_quantile_fn);
  ]

let micro_tests =
  List.map
    (fun (name, fn) -> Test.make ~name (Staged.stage fn))
    micro_subjects

(* ---------- Host-speed reference ----------

   The baselines hold absolute times, but the gates run on shared
   machines whose speed moves by 2x and more from hour to hour. Both
   gates therefore also time this fixed loop — stdlib only, so no change
   to the simulator can move it — and scale every baseline by how much
   slower or faster the loop runs now than when the baseline was
   written. A red gate then means the simulator got slower relative to
   the host, not that the host got slower. *)

let host_ref_name = "ref/host-speed"

let host_ref_fn =
  let a = Array.make 65_536 0 in
  fun () ->
    let s = ref 1 in
    for i = 0 to 65_535 do
      s := ((!s * 1_103_515_245) + 12_345) land 0x3FFF_FFFF;
      let j = !s land 0xFFFF in
      a.(j) <- a.(j) + i
    done

(* Best per-run wall time over several timed batches: co-tenant load only
   ever adds time, so the minimum is the host's current speed. *)
let host_ref_ns () =
  let batch = 20 and trials = 7 in
  host_ref_fn ();
  let best = ref infinity in
  for _ = 1 to trials do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      host_ref_fn ()
    done;
    best := Float.min !best ((Unix.gettimeofday () -. t0) /. float_of_int batch)
  done;
  !best *. 1e9

let host_ref_entry ns =
  (host_ref_name, Sim.Json.Obj [ ("ns_per_run", Sim.Json.Float ns) ])

(* ---------- Bechamel driver ---------- *)

let estimate_ns ~quota_s tests =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second quota_s)
      ~kde:None ~stabilize:false ()
  in
  let raw = Hashtbl.create 16 in
  List.iter
    (fun test ->
      Hashtbl.iter (Hashtbl.add raw) (Benchmark.all cfg instances test))
    (List.map (fun t -> Test.make_grouped ~name:"" ~fmt:"%s%s" [ t ]) tests);
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name ols_result acc ->
      let ns =
        match Analyze.OLS.estimates ols_result with
        | Some (v :: _) -> v
        | _ -> Float.nan
      in
      (name, ns) :: acc)
    results []

let run_bechamel ~quota_s tests =
  let rows = estimate_ns ~quota_s tests in
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Printf.printf "  %-42s (no estimate)\n" name
      else if ns > 1e9 then Printf.printf "  %-42s %8.2f s/run\n" name (ns /. 1e9)
      else if ns > 1e6 then
        Printf.printf "  %-42s %8.2f ms/run\n" name (ns /. 1e6)
      else if ns > 1e3 then
        Printf.printf "  %-42s %8.2f us/run\n" name (ns /. 1e3)
      else Printf.printf "  %-42s %8.0f ns/run\n" name ns)
    (List.sort compare rows);
  flush stdout

(* --smoke: tiny end-to-end run that exercises the metrics export path
   and fails loudly if the registry comes back empty or malformed.  Wired
   into [dune runtest] (see bench/dune) so CI validates the observability
   layer's output, not just its types. *)
let smoke () =
  let out =
    let rec find i =
      if i >= Array.length Sys.argv - 1 then "bench-smoke-metrics.json"
      else if Sys.argv.(i) = "--smoke" then Sys.argv.(i + 1)
      else find (i + 1)
    in
    if Array.length Sys.argv > 2 then find 1 else "bench-smoke-metrics.json"
  in
  let cfg =
    {
      Experiments.Config.default with
      Experiments.Config.system = Experiments.Config.Cdna_sys;
      nic = Experiments.Config.Ricenic;
      guests = 1;
      nics = 1;
      warmup = Sim.Time.ms 2;
      duration = Sim.Time.ms 5;
    }
  in
  let _, tb = Experiments.Run.run_tb cfg in
  let json = Sim.Metrics.to_json tb.Experiments.Testbed.metrics in
  let text = Sim.Json.to_string json in
  let oc = open_out out in
  output_string oc text;
  output_char oc '\n';
  close_out oc;
  let reread =
    let ic = open_in out in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  (match Sim.Json.parse reread with
  | Error e -> failwith ("smoke: metrics file is not valid JSON: " ^ e)
  | Ok (Sim.Json.Obj ((_ :: _) as fields)) ->
      Printf.printf "bench smoke: %s ok (%d series)\n" out (List.length fields)
  | Ok _ -> failwith "smoke: metrics JSON is empty or not an object");
  exit 0

(* ---------- --json: machine-readable micro results + regression gate ----------

   [--json FILE] measures every micro subject (bechamel ns/run plus a
   direct [Gc.minor_words] delta per run) and writes them as JSON, then
   re-reads the file through our own parser so a malformed export fails
   loudly. [--gate BASELINE] additionally compares against the committed
   baseline and exits non-zero if any subject regressed more than 2x in
   time or allocates more minor words per run at all — the CI benchmark
   regression gate (see bench/dune). *)

let arg_value flag =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = flag then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_json_file ~out entries =
  let oc = open_out out in
  output_string oc (Sim.Json.to_string (Sim.Json.Obj entries));
  output_char oc '\n';
  close_out oc

let json_number = function
  | Some (Sim.Json.Float f) -> Some f
  | Some (Sim.Json.Int i) -> Some (float_of_int i)
  | _ -> None

let gate_factor = 2.0

let read_baseline ~label path =
  match Sim.Json.parse (read_file path) with
  | Error e -> failwith (label ^ " gate: bad baseline JSON: " ^ e)
  | Ok v -> v

let metric key doc name =
  Option.bind (Sim.Json.member name doc) (fun e ->
      json_number (Sim.Json.member key e))

(* Shared ns_per_run gate: compare [parsed] against the [baseline]
   document, each baseline time scaled by the host-speed reference
   (ratio of the two files' [host_ref_name] entries; 1 when either lacks
   it). Prints every regression beyond [gate_factor]; [true] when there
   is none. *)
let gate_ns ~label ~subject_names ~baseline_path ~baseline parsed =
  let ns_of = metric "ns_per_run" in
  let host =
    match (ns_of baseline host_ref_name, ns_of parsed host_ref_name) with
    | Some base, Some now when base > 0. && now > 0. -> now /. base
    | _ -> 1.
  in
  Printf.printf "%s gate: host %.2fx the baseline's (%s)\n" label host
    host_ref_name;
  let regressions =
    List.filter_map
      (fun name ->
        match (ns_of baseline name, ns_of parsed name) with
        | Some base, Some now
          when base > 0. && now > gate_factor *. base *. host ->
            Some (name, base, now)
        | _ -> None)
      subject_names
  in
  List.iter
    (fun (name, base, now) ->
      Printf.printf
        "%s gate: REGRESSION %s: %.0f ns/run vs baseline %.0f x host %.2f \
         (>%.1fx)\n"
        label name now base host gate_factor)
    regressions;
  if regressions = [] then
    Printf.printf "%s gate: all %d subjects within %.1fx of %s\n" label
      (List.length subject_names)
      gate_factor baseline_path;
  regressions = []

(* Allocation is deterministic, so unlike time it needs no host scaling
   and no slack: a subject fails when its minor words per run exceed the
   baseline's at all. *)
let gate_words ~subject_names ~baseline parsed =
  let words_of = metric "minor_words_per_run" in
  let regressions =
    List.filter_map
      (fun name ->
        match (words_of baseline name, words_of parsed name) with
        | Some base, Some now when now > base -> Some (name, base, now)
        | _ -> None)
      subject_names
  in
  List.iter
    (fun (name, base, now) ->
      Printf.printf
        "bench gate: ALLOCATION REGRESSION %s: %.1f minor words/run vs \
         baseline %.1f\n"
        name now base)
    regressions;
  if regressions = [] then
    Printf.printf "bench gate: no subject allocates more than its baseline\n";
  regressions = []

let minor_words_per_run fn =
  fn ();
  (* warm: lazy tables, buffer growth *)
  let n = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    fn ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* Every subject is estimated [micro_rounds] times and keeps its fastest
   estimate, so one scheduling hiccup inside a short quota cannot fail
   the gate on its own. The host reference is timed before each round
   and keeps its fastest time too. *)
let micro_rounds = 3

let json_mode ~out ~gate ~quota_s =
  let best = Hashtbl.create 16 in
  let host_ns = ref infinity in
  for _ = 1 to micro_rounds do
    host_ns := Float.min !host_ns (host_ref_ns ());
    List.iter
      (fun (name, ns) ->
        match Hashtbl.find_opt best name with
        | _ when Float.is_nan ns -> ()
        | Some b when b <= ns -> ()
        | Some _ | None -> Hashtbl.replace best name ns)
      (estimate_ns ~quota_s micro_tests)
  done;
  let entries =
    List.map
      (fun (name, fn) ->
        let ns = Option.value (Hashtbl.find_opt best name) ~default:0. in
        let words = minor_words_per_run fn in
        ( name,
          Sim.Json.Obj
            [
              ("ns_per_run", Sim.Json.Float ns);
              ("minor_words_per_run", Sim.Json.Float words);
            ] ))
      micro_subjects
    @ [ host_ref_entry !host_ns ]
  in
  write_json_file ~out entries;
  let parsed =
    match Sim.Json.parse (read_file out) with
    | Error e -> failwith ("bench --json: emitted invalid JSON: " ^ e)
    | Ok v -> v
  in
  Printf.printf "bench json: wrote %s (%d subjects)\n" out
    (List.length micro_subjects);
  (match gate with
  | None -> ()
  | Some baseline_path ->
      let baseline = read_baseline ~label:"bench" baseline_path in
      let subject_names = List.map fst micro_subjects in
      let time_ok =
        gate_ns ~label:"bench" ~subject_names ~baseline_path ~baseline parsed
      in
      if not (gate_words ~subject_names ~baseline parsed && time_ok) then
        exit 1);
  exit 0

(* ---------- --macro: end-to-end scenario benchmark + gate ----------

   [--macro FILE] times complete runs — four replica hosts, an
   oversubscribed CDNA host and an open-loop scale point — reporting
   wall-clock per run and simulation events per wall-second.
   [--macro-gate BASELINE] applies the same host-scaled >2x ns_per_run
   regression gate as the micro set. *)

let macro_hosts = 4

let macro_cfg =
  {
    Experiments.Config.default with
    Experiments.Config.system = Experiments.Config.Cdna_sys;
    nic = Experiments.Config.Ricenic;
    guests = 1;
    nics = 1;
    warmup = Sim.Time.ms 1;
    duration = Sim.Time.ms 4;
  }

(* One timed run of [macro_hosts] replica hosts, one after the other:
   total simulation events fired during measurement plus the wall-clock
   for every build+run. *)
let macro_once () =
  let t0 = Unix.gettimeofday () in
  let events = ref 0 in
  for i = 0 to macro_hosts - 1 do
    let m = Experiments.Run.run (Experiments.Config.host macro_cfg i) in
    events := !events + m.Experiments.Run.events_fired
  done;
  (Unix.gettimeofday () -. t0, !events)

(* Oversubscribed CDNA: twice as many guests as hardware contexts, so
   the hypervisor's context paging runs on the hot path (every guest's
   traffic periodically faults its context back in, evicting another).
   Times the whole build+run; the gate catches pathological slowdowns in
   the save/restore machinery. *)
let oversub_cfg =
  {
    Experiments.Config.default with
    Experiments.Config.system = Experiments.Config.Cdna_sys;
    nic = Experiments.Config.Ricenic;
    guests = 2 * Cdna.Cnic.num_contexts;
    nics = 1;
    warmup = Sim.Time.ms 1;
    duration = Sim.Time.ms 4;
  }

let oversub_once () =
  let t0 = Unix.gettimeofday () in
  let m, tb = Experiments.Run.run_tb oversub_cfg in
  let wall_s = Unix.gettimeofday () -. t0 in
  (match tb.Experiments.Testbed.cdna_hyp with
  | Some h when Cdna.Hyp.ctx_swaps h > 0 -> ()
  | Some _ | None -> failwith "macro/guests-oversubscription: no context swaps");
  (wall_s, m.Experiments.Run.events_fired)

(* One open-loop scale point at 10^5 standing flows, both systems (the
   [cdna_sim scale] cell where the software path's flow-state touch
   penalty is fully engaged). "Events" here are datapath packet
   services, the dominant event population of the run. Timed in process
   CPU seconds rather than wall-clock: the subject is single-threaded,
   so the two agree on an idle machine, but the gate stays meaningful
   when `dune runtest` runs this concurrently with the test suite. *)
let open_loop_100k_once () =
  let t0 = Sys.time () in
  let p =
    Experiments.Flows.point ~quick:true ~scenario:Experiments.Flows.Normal
      ~seed:42 ~flows:100_000 ()
  in
  let wall_s = Sys.time () -. t0 in
  let pkts =
    p.Experiments.Flows.xen.Experiments.Flows.served_pkts
    + p.Experiments.Flows.cdna.Experiments.Flows.served_pkts
  in
  if pkts = 0 then failwith "macro/open-loop-100k: no packets served";
  (wall_s, pkts)

let macro_subjects =
  [
    ("macro/multihost4", macro_once);
    ("macro/guests-oversubscription", oversub_once);
    ("macro/open-loop-100k", open_loop_100k_once);
  ]

let macro_mode ~out ~gate =
  let host_before = host_ref_ns () in
  let entries =
    List.map
      (fun (name, fn) ->
        (* Warm once (lazy tables, allocator growth), then best of two. *)
        ignore (fn ());
        let w1, events = fn () in
        let w2, _ = fn () in
        let wall_s = Float.min w1 w2 in
        let eps = if wall_s > 0. then float_of_int events /. wall_s else 0. in
        ( name,
          Sim.Json.Obj
            [
              ("ns_per_run", Sim.Json.Float (wall_s *. 1e9));
              ("events_per_sec", Sim.Json.Float eps);
              ("events", Sim.Json.Int events);
            ] ))
      macro_subjects
  in
  let host_ns = Float.min host_before (host_ref_ns ()) in
  write_json_file ~out (entries @ [ host_ref_entry host_ns ]);
  let parsed =
    match Sim.Json.parse (read_file out) with
    | Error e -> failwith ("bench --macro: emitted invalid JSON: " ^ e)
    | Ok v -> v
  in
  Printf.printf "bench macro: wrote %s (%d subjects)\n" out
    (List.length macro_subjects);
  (match gate with
  | None -> ()
  | Some baseline_path ->
      let label = "bench macro" in
      if
        not
          (gate_ns ~label
             ~subject_names:(List.map fst macro_subjects)
             ~baseline_path
             ~baseline:(read_baseline ~label baseline_path)
             parsed)
      then exit 1);
  exit 0

let () =
  (match arg_value "--json" with
  | Some out ->
      let quota_s =
        match arg_value "--quota" with
        | Some s -> float_of_string s
        | None -> 0.25
      in
      json_mode ~out ~gate:(arg_value "--gate") ~quota_s
  | None -> ());
  (match arg_value "--macro" with
  | Some out -> macro_mode ~out ~gate:(arg_value "--macro-gate")
  | None -> ());
  if Array.exists (( = ) "--smoke") Sys.argv then smoke ();
  print_endline "==============================================================";
  print_endline " Bechamel: core-mechanism micro-benchmarks";
  print_endline "==============================================================";
  run_bechamel ~quota_s:0.5 micro_tests
