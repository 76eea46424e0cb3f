(* Tests for the bus substrate: MMIO regions/mappings, interrupt lines,
   and the DMA engine's timing, data movement and IOMMU enforcement. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

(* ---------- Mmio ---------- *)

let scratch_region () =
  let store = Array.make 16 0 in
  ( store,
    Bus.Mmio.region ~size:64
      ~read:(fun ~offset -> store.(offset / 4))
      ~write:(fun ~offset v -> store.(offset / 4) <- v) )

let test_mmio_rw () =
  let store, r = scratch_region () in
  let m = Bus.Mmio.map r in
  Bus.Mmio.write32 m ~offset:8 42;
  check_int "backing updated" 42 store.(2);
  check_int "read back" 42 (Bus.Mmio.read32 m ~offset:8);
  check_int "write count" 1 (Bus.Mmio.write_count m)

let test_mmio_bounds_and_alignment () =
  let _, r = scratch_region () in
  let m = Bus.Mmio.map r in
  Alcotest.check_raises "oob" (Bus.Mmio.Fault "offset 64 out of range") (fun () ->
      Bus.Mmio.write32 m ~offset:64 0);
  Alcotest.check_raises "negative" (Bus.Mmio.Fault "offset -4 out of range")
    (fun () -> ignore (Bus.Mmio.read32 m ~offset:(-4)));
  Alcotest.check_raises "unaligned" (Bus.Mmio.Fault "offset 2 not 4-byte aligned")
    (fun () -> Bus.Mmio.write32 m ~offset:2 0)

let test_mmio_revocation () =
  let _, r = scratch_region () in
  let m = Bus.Mmio.map r in
  Bus.Mmio.write32 m ~offset:0 1;
  Bus.Mmio.revoke m;
  check_bool "revoked" true (Bus.Mmio.is_revoked m);
  Alcotest.check_raises "faults" (Bus.Mmio.Fault "access through revoked mapping")
    (fun () -> Bus.Mmio.write32 m ~offset:0 2);
  (* A fresh mapping of the same region still works: revocation is
     per-mapping, exactly what context reassignment needs. *)
  let m2 = Bus.Mmio.map r in
  Bus.Mmio.write32 m2 ~offset:0 3;
  check_int "new mapping works" 3 (Bus.Mmio.read32 m2 ~offset:0)

(* ---------- Irq ---------- *)

let test_irq_delivery () =
  let irq = Bus.Irq.create () in
  let hits = ref 0 in
  Bus.Irq.set_handler irq (fun () -> incr hits);
  Bus.Irq.assert_line irq;
  Bus.Irq.assert_line irq;
  check_int "delivered" 2 !hits;
  check_int "count" 2 (Bus.Irq.count irq)

let test_irq_unrouted () =
  let irq = Bus.Irq.create () in
  Bus.Irq.assert_line irq;
  check_int "dropped" 1 (Bus.Irq.dropped irq);
  check_int "not counted" 0 (Bus.Irq.count irq)

(* ---------- Dma_engine ---------- *)

let dma_fixture () =
  let engine = Sim.Engine.create () in
  let mem = Memory.Phys_mem.create ~total_pages:32 () in
  let dma = Bus.Dma_engine.create engine ~mem () in
  (engine, mem, dma)

(* The bus gauges on a fresh registry: tests read its counters there. *)
let dma_metrics dma =
  let m = Sim.Metrics.create () in
  Bus.Dma_engine.register_metrics dma m;
  m

let test_dma_write_then_read () =
  let engine, _, dma = dma_fixture () in
  let data = Bytes.of_string "dma payload" in
  let read_back = Bytes.make (Bytes.length data) '\000' in
  Bus.Dma_engine.write dma ~context:0 ~addr:1000 ~data (fun r ->
      check_bool "write ok" true (r = Ok ());
      Bus.Dma_engine.read_into dma ~context:0 ~addr:1000 ~len:(Bytes.length data)
        ~dst:read_back ~pos:0
        (function
        | Ok () -> ()
        | Error _ -> Alcotest.fail "read failed"));
  ignore (Sim.Engine.run_to_completion engine);
  check Alcotest.string "bytes moved" "dma payload" (Bytes.to_string read_back)

let test_dma_is_asynchronous () =
  let engine, _, dma = dma_fixture () in
  let completed = ref false in
  Bus.Dma_engine.write dma ~context:0 ~addr:0 ~data:(Bytes.create 1500)
    (fun _ -> completed := true);
  check_bool "not yet complete" false !completed;
  ignore (Sim.Engine.run_to_completion engine);
  check_bool "complete after time passes" true !completed

let test_dma_transfers_serialize () =
  (* Two back-to-back transfers complete later than one: the bus is a
     shared serial resource. *)
  let engine, _, dma = dma_fixture () in
  let t1 = ref 0 and t2 = ref 0 in
  Bus.Dma_engine.write dma ~context:0 ~addr:0 ~data:(Bytes.create 4096)
    (fun _ -> t1 := Sim.Engine.now engine);
  Bus.Dma_engine.write dma ~context:0 ~addr:8192 ~data:(Bytes.create 4096)
    (fun _ -> t2 := Sim.Engine.now engine);
  ignore (Sim.Engine.run_to_completion engine);
  check_bool "second later" true (!t2 > !t1);
  (* Occupancy difference is one transfer's serialization (no latency,
     which is pipelined): 4096B at 8.5 Gb/s ~ 3855ns + 40ns arbitration. *)
  let delta = !t2 - !t1 in
  check_bool
    (Printf.sprintf "gap ~3.9us (got %dns)" delta)
    true
    (delta > 3_500 && delta < 4_500)

let test_dma_bad_range () =
  let engine, _, dma = dma_fixture () in
  let result = ref None in
  Bus.Dma_engine.read_into dma ~context:0 ~addr:(32 * 4096) ~len:8
    ~dst:(Bytes.create 8) ~pos:0 (fun r -> result := Some r);
  ignore (Sim.Engine.run_to_completion engine);
  check_bool "rejected immediately" true (!result = Some (Error `Bad_range))

let test_dma_iommu_enforcement () =
  let engine, _, dma = dma_fixture () in
  let iommu = Memory.Iommu.create () in
  Memory.Iommu.grant iommu ~context:5 1;
  Bus.Dma_engine.set_iommu dma (Some iommu);
  let ok = ref None and denied = ref None in
  Bus.Dma_engine.write dma ~context:5 ~addr:4096 ~data:(Bytes.create 64)
    (fun r -> ok := Some r);
  Bus.Dma_engine.write dma ~context:5 ~addr:8192 ~data:(Bytes.create 64)
    (fun r -> denied := Some r);
  ignore (Sim.Engine.run_to_completion engine);
  check_bool "granted page ok" true (!ok = Some (Ok ()));
  check_bool "other page denied" true (!denied = Some (Error (`Iommu_denied 2)));
  (* Removing the IOMMU restores trust. *)
  Bus.Dma_engine.set_iommu dma None;
  let after = ref None in
  Bus.Dma_engine.write dma ~context:5 ~addr:8192 ~data:(Bytes.create 64)
    (fun r -> after := Some r);
  ignore (Sim.Engine.run_to_completion engine);
  check_bool "trusted again" true (!after = Some (Ok ()))

let test_dma_iommu_checks_all_pages () =
  (* A transfer spanning two pages needs both granted. *)
  let engine, _, dma = dma_fixture () in
  let iommu = Memory.Iommu.create () in
  Memory.Iommu.grant iommu ~context:1 0;
  Bus.Dma_engine.set_iommu dma (Some iommu);
  let r = ref None in
  Bus.Dma_engine.access dma ~context:1 ~addr:4000 ~len:200 (fun x -> r := Some x);
  ignore (Sim.Engine.run_to_completion engine);
  check_bool "denied on second page" true (!r = Some (Error (`Iommu_denied 1)))

let test_dma_stats () =
  let engine, _, dma = dma_fixture () in
  let m = dma_metrics dma in
  Bus.Dma_engine.write dma ~context:0 ~addr:0 ~data:(Bytes.create 100) ignore;
  Bus.Dma_engine.access dma ~context:0 ~addr:0 ~len:50 ignore;
  ignore (Sim.Engine.run_to_completion engine);
  check_int "transfers" 2 (Sim.Metrics.sum m "dma.transfers");
  check_int "bytes" 150 (Sim.Metrics.sum m "dma.bytes_moved");
  check_bool "busy time positive" true (Sim.Metrics.sum m "dma.busy_ns" > 0)


(* ---------- Dma_engine completion order ---------- *)

(* Completion time of the [i]th of [lens] transfers all submitted at
   time 0 on an idle default engine: each occupies the bus for 40 ns
   arbitration plus its serialization, then the 600 ns latency. *)
let completion_times lens =
  let bus = ref 0 in
  List.map
    (fun len ->
      bus := !bus + 40 + Sim.Time.bits_time ~bits:(len * 8) ~rate_bps:8_500_000_000;
      !bus + 600)
    lens

let record log tag engine r = log := (tag, Sim.Engine.now engine, r) :: !log

let check_log name expected log =
  let got = List.rev_map (fun (tag, time, r) -> (tag, time, r = Ok ())) log in
  check
    Alcotest.(list (triple string int bool))
    name expected got

let test_dma_ring_order () =
  (* Every zero-copy kind shares the ring: completions come back in
     submission order, at the times the bus arithmetic gives. *)
  let engine, mem, dma = dma_fixture () in
  let log = ref [] in
  let src = Bytes.of_string "abcdefgh" and dst = Bytes.make 8 '.' in
  Memory.Phys_mem.write mem ~addr:100 (Bytes.of_string "ABCDEFGH");
  Bus.Dma_engine.access dma ~context:0 ~addr:0 ~len:64 (record log "access" engine);
  Bus.Dma_engine.read_into dma ~context:0 ~addr:100 ~len:8 ~dst ~pos:0
    (record log "read_into" engine);
  Bus.Dma_engine.write_from dma ~context:0 ~addr:200 ~src ~pos:0 ~len:8
    (record log "write_from" engine);
  Bus.Dma_engine.write_u32_pair dma ~context:0 ~addr:300 0x04030201 0x08070605
    (record log "pair" engine);
  check_string "nothing lands before completion" "........" (Bytes.to_string dst);
  ignore (Sim.Engine.run_to_completion engine);
  let times = completion_times [ 64; 8; 8; 8 ] in
  check_log "order and times"
    (List.combine [ "access"; "read_into"; "write_from"; "pair" ] times
    |> List.map (fun (tag, time) -> (tag, time, true)))
    !log;
  check_string "read_into" "ABCDEFGH" (Bytes.to_string dst);
  check_string "write_from" "abcdefgh"
    (Bytes.to_string (Memory.Phys_mem.read mem ~addr:200 ~len:8));
  check_string "pair lands little-endian" "\001\002\003\004\005\006\007\008"
    (Bytes.to_string (Memory.Phys_mem.read mem ~addr:300 ~len:8))

let test_dma_pair_matches_write () =
  (* [write_u32_pair] lands what [write] of the same 8 bytes lands, at
     the same time, and counts the same. *)
  let run submit =
    let engine, mem, dma = dma_fixture () in
    let m = dma_metrics dma in
    let at = ref 0 in
    submit dma (fun _ -> at := Sim.Engine.now engine);
    ignore (Sim.Engine.run_to_completion engine);
    ( Bytes.to_string (Memory.Phys_mem.read mem ~addr:4092 ~len:8),
      !at,
      Sim.Metrics.sum m "dma.transfers",
      Sim.Metrics.sum m "dma.bytes_moved" )
  in
  let data = Bytes.create 8 in
  Bytes.set_int32_le data 0 0x7fff1234l;
  Bytes.set_int32_le data 4 0x0badf00dl;
  (* Straddles a page boundary: the two halves go to different frames. *)
  let a = run (fun dma k -> Bus.Dma_engine.write dma ~context:0 ~addr:4092 ~data k) in
  let b =
    run (fun dma k ->
        Bus.Dma_engine.write_u32_pair dma ~context:0 ~addr:4092 0x7fff1234
          0x0badf00d k)
  in
  check
    Alcotest.(pair string (pair int (pair int int)))
    "same bytes, time and counters"
    (let s, t, n, by = a in (s, (t, (n, by))))
    (let s, t, n, by = b in (s, (t, (n, by))))

let test_dma_ring_injected_between () =
  (* An injected fault completes through its own closure, between two
     ring completions, without consuming a ring slot. *)
  let engine, mem, dma = dma_fixture () in
  Bus.Dma_engine.set_fault_injector dma
    (Some (fun ~context:_ ~addr ~len:_ -> addr = 1000));
  let log = ref [] in
  let src = Bytes.of_string "xy" in
  Bus.Dma_engine.write_from dma ~context:0 ~addr:0 ~src ~pos:0 ~len:2
    (record log "first" engine);
  Bus.Dma_engine.write_from dma ~context:0 ~addr:1000 ~src ~pos:0 ~len:2
    (record log "injected" engine);
  Bus.Dma_engine.write_from dma ~context:0 ~addr:2000 ~src ~pos:0 ~len:2
    (record log "third" engine);
  ignore (Sim.Engine.run_to_completion engine);
  (match completion_times [ 2; 2; 2 ] with
  | [ t1; t2; t3 ] ->
      check_log "injected keeps its place"
        [ ("first", t1, true); ("injected", t2, false); ("third", t3, true) ]
        !log
  | _ -> assert false);
  check_int "injected counted" 1 (Bus.Dma_engine.injected_faults dma);
  check_string "first landed" "xy"
    (Bytes.to_string (Memory.Phys_mem.read mem ~addr:0 ~len:2));
  check_string "injected did not land" "\000\000"
    (Bytes.to_string (Memory.Phys_mem.read mem ~addr:1000 ~len:2));
  check_string "third landed" "xy"
    (Bytes.to_string (Memory.Phys_mem.read mem ~addr:2000 ~len:2))

let test_dma_ring_resubmit () =
  (* A continuation that submits again joins the ring behind the
     transfers already pending. *)
  let engine, _, dma = dma_fixture () in
  let m = dma_metrics dma in
  let order = ref [] in
  let note tag _ = order := tag :: !order in
  Bus.Dma_engine.access dma ~context:0 ~addr:0 ~len:64 (fun r ->
      note "a" r;
      Bus.Dma_engine.access dma ~context:0 ~addr:0 ~len:64 (note "d"));
  Bus.Dma_engine.access dma ~context:0 ~addr:0 ~len:64 (note "b");
  Bus.Dma_engine.access dma ~context:0 ~addr:0 ~len:64 (note "c");
  ignore (Sim.Engine.run_to_completion engine);
  check Alcotest.(list string) "a b c d" [ "a"; "b"; "c"; "d" ] (List.rev !order);
  check_int "transfers" 4 (Sim.Metrics.sum m "dma.transfers")

let test_dma_ring_growth () =
  (* More than the ring's initial 16 slots in flight, with the head
     advanced first so growth unwraps a wrapped ring. *)
  let engine, mem, dma = dma_fixture () in
  let done_ = ref [] in
  let submit i =
    let src = Bytes.make 4 (Char.chr (Char.code 'A' + i)) in
    Bus.Dma_engine.write_from dma ~context:0 ~addr:(i * 64) ~src ~pos:0 ~len:4
      (fun r ->
        check_bool "ok" true (r = Ok ());
        done_ := i :: !done_)
  in
  for i = 0 to 9 do submit i done;
  (* Let the first five complete, then pile 40 more on top. *)
  Sim.Engine.run engine ~until:(List.nth (completion_times (List.init 5 (fun _ -> 4))) 4);
  check_int "five done" 5 (List.length !done_);
  for i = 10 to 49 do submit i done;
  ignore (Sim.Engine.run_to_completion engine);
  check Alcotest.(list int) "submission order" (List.init 50 Fun.id) (List.rev !done_);
  for i = 0 to 49 do
    check_string (Printf.sprintf "bytes of %d" i)
      (String.make 4 (Char.chr (Char.code 'A' + i)))
      (Bytes.to_string (Memory.Phys_mem.read mem ~addr:(i * 64) ~len:4))
  done

let suite =
  [
    ( "bus.mmio",
      [
        Alcotest.test_case "read/write" `Quick test_mmio_rw;
        Alcotest.test_case "bounds and alignment" `Quick test_mmio_bounds_and_alignment;
        Alcotest.test_case "revocation" `Quick test_mmio_revocation;
      ] );
    ( "bus.irq",
      [
        Alcotest.test_case "delivery" `Quick test_irq_delivery;
        Alcotest.test_case "unrouted" `Quick test_irq_unrouted;
      ] );
    ( "bus.dma",
      [
        Alcotest.test_case "write then read" `Quick test_dma_write_then_read;
        Alcotest.test_case "asynchronous" `Quick test_dma_is_asynchronous;
        Alcotest.test_case "serializes" `Quick test_dma_transfers_serialize;
        Alcotest.test_case "bad range" `Quick test_dma_bad_range;
        Alcotest.test_case "iommu enforcement" `Quick test_dma_iommu_enforcement;
        Alcotest.test_case "iommu all pages" `Quick test_dma_iommu_checks_all_pages;
        Alcotest.test_case "stats" `Quick test_dma_stats;
        Alcotest.test_case "ring order" `Quick test_dma_ring_order;
        Alcotest.test_case "u32 pair = 8-byte write" `Quick test_dma_pair_matches_write;
        Alcotest.test_case "injected between ring transfers" `Quick
          test_dma_ring_injected_between;
        Alcotest.test_case "continuation resubmits" `Quick test_dma_ring_resubmit;
        Alcotest.test_case "ring growth" `Quick test_dma_ring_growth;
      ] );
  ]
