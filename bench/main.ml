(* Simulator benchmarks: Bechamel timings of the core mechanisms
   (descriptor serialization, mailbox bit-vector decode, sequence-number
   checks, CRC-32, the event engine and its FIFOs, grant flips, the flow
   table) and of four whole runs, plus the regression gate that `dune
   runtest` runs.

   Paper regeneration lives in `cdna_sim` (`table`, `figure`,
   `extension`, `verify`); `perfbench/e2e.exe` times it end to end.

   Run the set with:      dune exec bench/main.exe
   Results as JSON:       dune exec bench/main.exe -- --json FILE [--gate BASELINE] *)

open Bechamel
open Toolkit

(* ---------- Subjects ----------

   Plain named closures, so the same subject feeds both the bechamel
   timing run and the direct [Gc.counters] measurement of the --json
   mode. *)

let engine_events_fn () =
  let e = Sim.Engine.create () in
  for i = 1 to 10_000 do
    Sim.Engine.schedule e ~delay:i (fun () -> ())
  done;
  ignore (Sim.Engine.run_to_completion e)

let heap_churn_fn () =
  let h = Sim.Heap.create ~dummy:0 () in
  for i = 0 to 999 do
    let v = (i * 7919) land 1023 in
    Sim.Heap.push h ~key:v v
  done;
  while not (Sim.Heap.is_empty h) do
    ignore (Sim.Heap.pop_exn h)
  done

(* 1k push/pop pairs through a FIFO held 100 deep, as the datapath
   queues cycle: once the warm-up run has built its chunks, the drained
   chunk is reused and a run allocates nothing. *)
let fifo_cycle_fn =
  let f = Sim.Fifo.create ~dummy:0 in
  for i = 1 to 100 do
    Sim.Fifo.push f i
  done;
  fun () ->
    for i = 1 to 1000 do
      Sim.Fifo.push f i;
      ignore (Sim.Fifo.pop f)
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
  let costs =
    Experiments.Cost_model.for_config Experiments.Config.Xen_sw
      Experiments.Config.Intel
  in
  let hyp = Xen.Hypervisor.create engine ~cpu ~mem ~costs:costs.xen () in
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
   off the free-slot stack, then 1M completions by slot. A full table
   holds every slot, so the drain completes slots 0 .. n-1 in order. The
   table is preallocated once (~33 MB of flat arrays); the per-run loop
   is the [@cdna.hot] admission path and must show minor_words_per_run
   = 0 in the --json output. *)
let flow_admit_1m_fn =
  let n = 1_000_000 in
  let t = Workload.Flow_table.create ~capacity:n in
  fun () ->
    for i = 0 to n - 1 do
      assert (Workload.Flow_table.insert t ~pkts:1 ~now:i >= 0)
    done;
    for slot = 0 to n - 1 do
      ignore (Workload.Flow_table.complete t ~slot ~now:(n + slot))
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

(* Whole runs, each a short-window copy of a paper scenario. A run that
   stops doing the work it is here to time fails instead of getting
   faster. *)

let cdna_cfg guests =
  {
    Experiments.Config.default with
    Experiments.Config.system = Experiments.Config.Cdna_sys;
    nic = Experiments.Config.Ricenic;
    guests;
    nics = 1;
    warmup = Sim.Time.ms 1;
    duration = Sim.Time.ms 4;
  }

(* The paper's small CDNA testbed: one guest on one RiceNIC. *)
let cdna_1g_fn () = ignore (Experiments.Run.run (cdna_cfg 1))

(* Twice as many guests as hardware contexts, so the hypervisor's
   context paging is on the hot path: every guest's traffic periodically
   faults its context back in, evicting another. The 40 ms window, as in
   [xen_rx_2g_fn], gives a run about 500 enqueue hypercalls and 500
   context swaps; at 4 ms it made 34 enqueues, and the 64 drivers'
   set-up was nearly all it allocated. *)
let cdna_64g_paging_fn () =
  let _, tb =
    Experiments.Run.run_tb
      {
        (cdna_cfg (2 * Cdna.Cnic.num_contexts)) with
        Experiments.Config.duration = Sim.Time.ms 40;
      }
  in
  if Sim.Metrics.sum tb.Experiments.Testbed.metrics "cdna.ctx_swaps" = 0 then
    failwith "e2e/cdna-64g-paging: no context swaps"

(* Xen receive on two guests: every packet crosses the Intel NIC's DMA,
   netback, the bridge and a grant flip into the guest. The 40 ms window
   makes the per-packet work, not testbed set-up, most of what a run
   allocates. *)
let xen_rx_2g_fn () =
  let _, tb =
    Experiments.Run.run_tb
      {
        Experiments.Config.default with
        Experiments.Config.system = Experiments.Config.Xen_sw;
        nic = Experiments.Config.Intel;
        guests = 2;
        pattern = Workload.Pattern.Rx;
        warmup = Sim.Time.ms 1;
        duration = Sim.Time.ms 40;
      }
  in
  let delivered =
    Sim.Metrics.sum tb.Experiments.Testbed.metrics "netback.rx_delivered"
  in
  if delivered = 0 || Xen.Grant_table.flips tb.Experiments.Testbed.grant_table = 0
  then failwith "e2e/xen-rx-2g: netback forwarded nothing or flipped no grant"

(* One open-loop scale point at 10^5 standing flows, both systems: the
   [cdna_sim scale] cell where the software path's flow-state touch
   penalty is fully engaged. *)
let open_loop_100k_fn () =
  let p =
    Experiments.Flows.point ~quick:true ~scenario:Experiments.Flows.Normal
      ~seed:42 ~flows:100_000 ()
  in
  if
    p.Experiments.Flows.xen.Experiments.Flows.served_pkts = 0
    || p.Experiments.Flows.cdna.Experiments.Flows.served_pkts = 0
  then failwith "e2e/open-loop-100k: a system served no packets"

let subjects =
  [
    ("micro/engine-10k-events", engine_events_fn);
    ("micro/heap-push-pop-1k", heap_churn_fn);
    ("micro/fifo-cycle-1k", fifo_cycle_fn);
    ("micro/crc32-1500B", crc32_fn);
    ("micro/materialize-1500B", materialize_fn);
    ("micro/descriptor-write-read", descriptor_roundtrip_fn);
    ("micro/mailbox-write-decode-32ctx", mailbox_decode_fn);
    ("micro/seqno-check-1k", seqno_check_fn);
    ("micro/grant-flip", grant_flip_fn);
    ("micro/bridge-route-26-ports", bridge_route_fn);
    ("micro/flow-admit-1M", flow_admit_1m_fn);
    ("micro/histogram-multi-quantile", histogram_multi_quantile_fn);
    ("e2e/cdna-1g", cdna_1g_fn);
    ("e2e/cdna-64g-paging", cdna_64g_paging_fn);
    ("e2e/open-loop-100k", open_loop_100k_fn);
    ("e2e/xen-rx-2g", xen_rx_2g_fn);
  ]

let tests =
  List.map (fun (name, fn) -> Test.make ~name (Staged.stage fn)) subjects

(* ---------- Host-speed reference ----------

   The baseline holds absolute times, but the gate runs on shared
   machines whose speed moves by 2x and more from hour to hour. The
   gate therefore also times this fixed loop — stdlib only, so no change
   to the simulator can move it — and scales the baseline by how much
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

(* Best per-run time over several timed batches, read from the
   monotonic-clock measure bechamel times the subjects with: co-tenant
   load only ever adds time, so the minimum is the host's current
   speed. *)
let host_ref_ns () =
  let batch = 20 and trials = 7 in
  host_ref_fn ();
  let best = ref infinity in
  for _ = 1 to trials do
    let t0 = Monotonic_clock.get () in
    for _ = 1 to batch do
      host_ref_fn ()
    done;
    let ns = (Monotonic_clock.get () -. t0) /. float_of_int batch in
    best := Float.min !best ns
  done;
  !best

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

(* ---------- --json: machine-readable results + regression gate ----------

   [--json FILE] measures every subject (bechamel ns/run plus direct
   [Gc.counters] deltas per run: minor words, and words allocated
   straight into the major heap) and writes them as JSON, then re-reads
   the file through our own parser so a malformed export fails loudly.
   [--gate BASELINE] additionally compares against the committed
   baseline and exits non-zero if any subject regressed more than 2x in
   time or allocates more minor or direct major words per run at all —
   the CI benchmark regression gate (see bench/dune). *)

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

let read_baseline path =
  match Sim.Json.parse (read_file path) with
  | Error e -> failwith ("bench gate: bad baseline JSON: " ^ e)
  | Ok v -> v

let metric key doc name =
  Option.bind (Sim.Json.member name doc) (fun e ->
      json_number (Sim.Json.member key e))

(* ns_per_run gate: compare [parsed] against the [baseline]
   document, each baseline time scaled by the host-speed reference
   (ratio of the two files' [host_ref_name] entries; 1 when either lacks
   it). Prints every regression beyond [gate_factor]; [true] when there
   is none. *)
let gate_ns ~subject_names ~baseline_path ~baseline parsed =
  let ns_of = metric "ns_per_run" in
  let host =
    match (ns_of baseline host_ref_name, ns_of parsed host_ref_name) with
    | Some base, Some now when base > 0. && now > 0. -> now /. base
    | _ -> 1.
  in
  Printf.printf "bench gate: host %.2fx the baseline's (%s)\n" host
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
        "bench gate: REGRESSION %s: %.0f ns/run vs baseline %.0f x host %.2f \
         (>%.1fx)\n"
        name now base host gate_factor)
    regressions;
  if regressions = [] then
    Printf.printf "bench gate: all %d subjects within %.1fx of %s\n"
      (List.length subject_names)
      gate_factor baseline_path;
  regressions = []

(* Allocation is deterministic, so unlike time it needs no host scaling
   and no slack: a subject fails when its words per run under [key]
   ([heap] in the message) exceed the baseline's at all. *)
let gate_words ~key ~heap ~subject_names ~baseline parsed =
  let words_of = metric key in
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
        "bench gate: ALLOCATION REGRESSION %s: %.1f %s words/run vs \
         baseline %.1f\n"
        name now heap base)
    regressions;
  if regressions = [] then
    Printf.printf
      "bench gate: no subject allocates more %s words than its baseline\n" heap;
  regressions = []

(* Minor words per run, and words per run allocated directly in the
   major heap: [Gc.counters]'s major words less those promoted out of
   the minor heap. A block above [Max_young_wosize] (256 words, so an
   8 KB array copy) goes straight to the major heap and never shows in
   the minor count. Promotion depends on where minor collections fall;
   direct major allocation does not, so both counts are exact. The
   minor count comes from [Gc.minor_words]: [Gc.counters]'s own minor
   figure reads low on OCaml 5.1. *)
let words_per_run fn =
  fn ();
  (* warm: lazy tables, buffer growth *)
  let n = 20 in
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  for _ = 1 to n do
    fn ()
  done;
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  let per w = w /. float_of_int n in
  ( per (minor1 -. minor0),
    per (major1 -. promoted1 -. (major0 -. promoted0)) )

(* Every subject is estimated [rounds] times and keeps its fastest
   estimate, so one scheduling hiccup inside a short quota cannot fail
   the gate on its own. The host reference is timed before each round
   and keeps its fastest time too. *)
let rounds = 3

let json_mode ~out ~gate ~quota_s =
  let best = Hashtbl.create 16 in
  let host_ns = ref infinity in
  for _ = 1 to rounds do
    host_ns := Float.min !host_ns (host_ref_ns ());
    List.iter
      (fun (name, ns) ->
        match Hashtbl.find_opt best name with
        | _ when Float.is_nan ns -> ()
        | Some b when b <= ns -> ()
        | Some _ | None -> Hashtbl.replace best name ns)
      (estimate_ns ~quota_s tests)
  done;
  let entries =
    List.map
      (fun (name, fn) ->
        let ns = Option.value (Hashtbl.find_opt best name) ~default:0. in
        let minor, major = words_per_run fn in
        ( name,
          Sim.Json.Obj
            [
              ("ns_per_run", Sim.Json.Float ns);
              ("minor_words_per_run", Sim.Json.Float minor);
              ("major_words_per_run", Sim.Json.Float major);
            ] ))
      subjects
    @ [
        ( host_ref_name,
          Sim.Json.Obj [ ("ns_per_run", Sim.Json.Float !host_ns) ] );
      ]
  in
  write_json_file ~out entries;
  let parsed =
    match Sim.Json.parse (read_file out) with
    | Error e -> failwith ("bench --json: emitted invalid JSON: " ^ e)
    | Ok v -> v
  in
  Printf.printf "bench json: wrote %s (%d subjects)\n" out
    (List.length subjects);
  (match gate with
  | None -> ()
  | Some baseline_path ->
      let baseline = read_baseline baseline_path in
      let subject_names = List.map fst subjects in
      let time_ok = gate_ns ~subject_names ~baseline_path ~baseline parsed in
      let gate_words ~key ~heap =
        gate_words ~key ~heap ~subject_names ~baseline parsed
      in
      let minor_ok = gate_words ~key:"minor_words_per_run" ~heap:"minor" in
      let major_ok = gate_words ~key:"major_words_per_run" ~heap:"major" in
      if not (minor_ok && major_ok && time_ok) then exit 1);
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
  print_endline "==============================================================";
  print_endline " Bechamel: core mechanisms and whole runs";
  print_endline "==============================================================";
  run_bechamel ~quota_s:0.5 tests
