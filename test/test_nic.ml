(* Tests for the NIC library: rings, mailboxes, packet buffers, interrupt
   coalescing, the multi-context datapath, the firmware, and the two
   conventional NIC wrappers. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ---------- Ring ---------- *)

let test_ring_layout () =
  let r = Nic.Ring.create ~base:4096 ~slots:8 () in
  check_int "slot 0" 4096 (Nic.Ring.slot_addr r 0);
  check_int "slot 3" (4096 + 48) (Nic.Ring.slot_addr r 3);
  check_int "wraps" (4096 + 16) (Nic.Ring.slot_addr r 9);
  check_int "size" 128 (Nic.Ring.size_bytes r)

let test_ring_occupancy () =
  let r = Nic.Ring.create ~base:0 ~slots:8 () in
  check_int "available" 3 (Nic.Ring.available ~prod:10 ~cons:7);
  check_int "space" 5 (Nic.Ring.space r ~prod:10 ~cons:7);
  check_bool "empty" true (Nic.Ring.is_empty ~prod:7 ~cons:7);
  check_bool "full" true (Nic.Ring.is_full r ~prod:15 ~cons:7);
  Alcotest.check_raises "consumer ahead"
    (Invalid_argument "Ring.available: consumer ahead of producer") (fun () ->
      ignore (Nic.Ring.available ~prod:3 ~cons:4))

let test_ring_validation () =
  Alcotest.check_raises "not power of two"
    (Invalid_argument "Ring.create: slots must be a power of two in [2, 32768]")
    (fun () -> ignore (Nic.Ring.create ~base:0 ~slots:6 ()));
  Alcotest.check_raises "too big"
    (Invalid_argument "Ring.create: slots must be a power of two in [2, 32768]")
    (fun () -> ignore (Nic.Ring.create ~base:0 ~slots:65536 ()))

(* ---------- Mailbox ---------- *)

let test_mailbox_event_hierarchy () =
  let events = ref 0 in
  let mb = Nic.Mailbox.create ~contexts:4 ~on_event:(fun () -> incr events) in
  let region2 = Nic.Mailbox.region mb ~ctx:2 in
  let m = Bus.Mmio.map region2 in
  Bus.Mmio.write32 m ~offset:(5 * 4) 1234;
  check_int "event fired" 1 !events;
  check_int "ctx vector" 0b100 (Nic.Mailbox.pending_contexts mb);
  check_int "box vector" (1 lsl 5) (Nic.Mailbox.pending_boxes mb ~ctx:2);
  check Alcotest.(option (pair int int)) "decode" (Some (2, 5))
    (Nic.Mailbox.next_event mb);
  check_int "value readable" 1234 (Nic.Mailbox.value mb ~ctx:2 ~mbox:5);
  Nic.Mailbox.clear_event mb ~ctx:2 ~mbox:5;
  check Alcotest.(option (pair int int)) "cleared" None (Nic.Mailbox.next_event mb);
  check_int "ctx vector cleared" 0 (Nic.Mailbox.pending_contexts mb)

let test_mailbox_lowest_first () =
  let mb = Nic.Mailbox.create ~contexts:8 ~on_event:ignore in
  let write ctx mbox v =
    let m = Bus.Mmio.map (Nic.Mailbox.region mb ~ctx) in
    Bus.Mmio.write32 m ~offset:(mbox * 4) v
  in
  write 5 3 1;
  write 1 7 2;
  write 1 2 3;
  (* Lowest context first, lowest mailbox within it. *)
  check Alcotest.(option (pair int int)) "1,2 first" (Some (1, 2))
    (Nic.Mailbox.next_event mb);
  Nic.Mailbox.clear_event mb ~ctx:1 ~mbox:2;
  check Alcotest.(option (pair int int)) "then 1,7" (Some (1, 7))
    (Nic.Mailbox.next_event mb);
  Nic.Mailbox.clear_context mb ~ctx:1;
  check Alcotest.(option (pair int int)) "then 5,3" (Some (5, 3))
    (Nic.Mailbox.next_event mb)

let test_mailbox_beyond_mailbox_words () =
  (* Writes past the first 24 words hit shared memory without events. *)
  let events = ref 0 in
  let mb = Nic.Mailbox.create ~contexts:1 ~on_event:(fun () -> incr events) in
  let m = Bus.Mmio.map (Nic.Mailbox.region mb ~ctx:0) in
  Bus.Mmio.write32 m ~offset:(30 * 4) 99;
  check_int "no event" 0 !events;
  check_int "readable" 99 (Bus.Mmio.read32 m ~offset:(30 * 4))

let test_mailbox_poke_silent () =
  let events = ref 0 in
  let mb = Nic.Mailbox.create ~contexts:2 ~on_event:(fun () -> incr events) in
  Nic.Mailbox.poke mb ~ctx:1 ~mbox:3 55;
  check_int "no event from poke" 0 !events;
  check_int "value set" 55 (Nic.Mailbox.value mb ~ctx:1 ~mbox:3)

let prop_mailbox_decode_matches_vectors =
  QCheck.Test.make ~name:"mailbox decode = lowest set bits" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 10) (pair (int_range 0 7) (int_range 0 23)))
    (fun writes ->
      let mb = Nic.Mailbox.create ~contexts:8 ~on_event:ignore in
      List.iter
        (fun (ctx, mbox) ->
          let m = Bus.Mmio.map (Nic.Mailbox.region mb ~ctx) in
          Bus.Mmio.write32 m ~offset:(mbox * 4) 1)
        writes;
      let min_ctx = List.fold_left (fun a (c, _) -> min a c) 99 writes in
      let min_box =
        List.fold_left
          (fun a (c, b) -> if c = min_ctx then min a b else a)
          99 writes
      in
      Nic.Mailbox.next_event mb = Some (min_ctx, min_box))

(* ---------- Pkt_buf ---------- *)

let test_pkt_buf () =
  let b = Nic.Pkt_buf.create ~capacity:1000 in
  check_bool "reserve" true (Nic.Pkt_buf.try_reserve b ~bytes:600);
  check_bool "over capacity" false (Nic.Pkt_buf.try_reserve b ~bytes:600);
  check_int "drop counted" 1 (Nic.Pkt_buf.drops b);
  Nic.Pkt_buf.release b ~bytes:600;
  check_bool "fits after release" true (Nic.Pkt_buf.try_reserve b ~bytes:600);
  check_int "peak" 600 (Nic.Pkt_buf.peak b);
  Alcotest.check_raises "underflow" (Invalid_argument "Pkt_buf.release: underflow")
    (fun () -> Nic.Pkt_buf.release b ~bytes:601)

(* ---------- Coalesce ---------- *)

(* A coalescer's gauges on a fresh registry: tests read its counters
   there. *)
let coalesce_metrics c =
  let m = Sim.Metrics.create () in
  Nic.Coalesce.register_metrics c m ~labels:[];
  m

let test_coalesce_caps_rate () =
  let engine = Sim.Engine.create () in
  let fires = ref 0 in
  let c =
    Nic.Coalesce.create engine ~min_gap:(Sim.Time.us 100) ~fire:(fun () ->
        incr fires)
  in
  let m = coalesce_metrics c in
  (* 1000 requests over 1 ms -> at most ~11 fires with a 100 us gap. *)
  for i = 0 to 999 do
    Sim.Engine.schedule engine ~delay:(Sim.Time.ns (i * 1000)) (fun () ->
        Nic.Coalesce.request c)
  done;
  ignore (Sim.Engine.run_to_completion engine);
  check_bool (Printf.sprintf "capped (%d)" !fires) true (!fires <= 11);
  check_int "nothing lost" 1000 (!fires + Sim.Metrics.sum m "coalesce.suppressed")

let test_coalesce_immediate_when_idle () =
  let engine = Sim.Engine.create () in
  let fired_at = ref (-1) in
  let c =
    Nic.Coalesce.create engine ~min_gap:(Sim.Time.us 100) ~fire:(fun () ->
        fired_at := Sim.Engine.now engine)
  in
  Sim.Engine.schedule engine ~delay:(Sim.Time.us 500) (fun () ->
      Nic.Coalesce.request c);
  ignore (Sim.Engine.run_to_completion engine);
  check_int "immediate" (Sim.Time.us 500) !fired_at

let test_coalesce_accounting_invariant () =
  (* Regression: requests = fired + suppressed must hold at every instant,
     including while a merged firing is pending.  The old code only
     counted [fired] at delivery time, so a request that armed the timer
     was momentarily neither fired nor suppressed. *)
  let engine = Sim.Engine.create () in
  let c =
    Nic.Coalesce.create engine ~min_gap:(Sim.Time.us 100) ~fire:(fun () -> ())
  in
  let m = coalesce_metrics c in
  let count name = Sim.Metrics.sum m name in
  let check_invariant label =
    check_int label (count "coalesce.requests")
      (count "coalesce.fired" + count "coalesce.suppressed")
  in
  Sim.Engine.schedule engine ~delay:0 (fun () ->
      Nic.Coalesce.request c;
      check_invariant "after immediate fire");
  (* 30us after the fire: inside the gap, so this arms a deferred firing. *)
  Sim.Engine.schedule engine ~delay:(Sim.Time.us 30) (fun () ->
      Nic.Coalesce.request c;
      check_invariant "while pending");
  Sim.Engine.schedule engine ~delay:(Sim.Time.us 50) (fun () ->
      Nic.Coalesce.request c;
      check_invariant "merged into pending");
  ignore (Sim.Engine.run_to_completion engine);
  check_invariant "after drain";
  check_int "requests" 3 (count "coalesce.requests");
  check_int "fired" 2 (count "coalesce.fired");
  check_int "suppressed" 1 (count "coalesce.suppressed")

(* ---------- Dp (datapath) ---------- *)

type dp_fixture = {
  engine : Sim.Engine.t;
  mem : Memory.Phys_mem.t;
  dp : Nic.Dp.t;
  link : Ethernet.Link.t;
  notifications : (int, int) Hashtbl.t;
  faults : (int * Nic.Dp.dir * Nic.Dp.fault) list ref;
  metrics : Sim.Metrics.t;  (** The datapath's gauges, labelled nic=dp. *)
}

(* The fixture's datapath gauges on a fresh registry. *)
let dp_metrics dp =
  let m = Sim.Metrics.create () in
  Nic.Dp.register_metrics dp m ~labels:[ ("nic", "dp") ];
  m

let count fx name = Sim.Metrics.sum fx.metrics name

let ctx_tx_frames fx ~ctx =
  count fx (Printf.sprintf "nic.ctx.tx_frames{ctx=%d,nic=dp}" ctx)

let dp_fixture ?(contexts = 4) ?(seqno_checking = false) ?(materialize = false)
    () =
  let engine = Sim.Engine.create () in
  let mem = Memory.Phys_mem.create ~total_pages:256 () in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let notifications = Hashtbl.create 8 in
  let faults = ref [] in
  let config =
    {
      Nic.Nic_config.ricenic with
      Nic.Nic_config.seqno_checking;
      materialize_payloads = materialize;
    }
  in
  let dp =
    Nic.Dp.create engine ~mem ~dma ~config ~contexts ~dma_context_base:0
      ~notify:(fun ~ctx ->
        Hashtbl.replace notifications ctx
          (1 + Option.value ~default:0 (Hashtbl.find_opt notifications ctx)))
      ~on_fault:(fun ~ctx dir f -> faults := (ctx, dir, f) :: !faults)
      ()
  in
  let link = Ethernet.Link.create engine () in
  Nic.Dp.attach_link dp link ~side:Ethernet.Link.A;
  { engine; mem; dp; link; notifications; faults; metrics = dp_metrics dp }

(* A miniature trusted driver for one context: rings at fixed pages,
   buffers behind them. *)
type mini_driver = {
  ctx : int;
  tx_ring : Nic.Ring.t;
  rx_ring : Nic.Ring.t;
  tx_pages : int array;
  rx_pages : int array;
  mutable tx_prod : int;
  mutable rx_prod : int;
}

let attach_driver fx ~ctx ~mac =
  let base = 16 * (ctx + 1) in
  let tx_ring = Nic.Ring.create ~base:(Memory.Addr.base_of_pfn base) ~slots:8 () in
  let rx_ring =
    Nic.Ring.create ~base:(Memory.Addr.base_of_pfn (base + 1)) ~slots:8 ()
  in
  let tx_pages = Array.init 8 (fun i -> base + 2 + i) in
  let rx_pages = Array.init 8 (fun i -> base + 10 + i) in
  Nic.Dp.activate fx.dp ~ctx ~mac;
  Nic.Dp.set_tx_ring fx.dp ~ctx tx_ring;
  Nic.Dp.set_rx_ring fx.dp ~ctx rx_ring;
  let d = { ctx; tx_ring; rx_ring; tx_pages; rx_pages; tx_prod = 0; rx_prod = 0 } in
  (* Post all receive buffers. *)
  for _ = 1 to 8 do
    let slot = d.rx_prod in
    Memory.Dma_desc.write fx.mem
      ~at:(Nic.Ring.slot_addr rx_ring slot)
      {
        Memory.Dma_desc.addr = Memory.Addr.base_of_pfn rx_pages.(slot land 7);
        len = Memory.Addr.page_size;
        flags = 0;
        seqno = slot land 0xFFFF;
      };
    d.rx_prod <- slot + 1
  done;
  Nic.Dp.rx_doorbell fx.dp ~ctx ~prod:d.rx_prod;
  d

let send_one fx d ?(len = 1000) ?(seed = 5) () =
  let slot = d.tx_prod in
  let frame =
    Ethernet.Frame.make
      ~src:(Option.get (Nic.Dp.mac_of fx.dp ~ctx:d.ctx))
      ~dst:(Ethernet.Mac_addr.make 500)
      ~kind:Ethernet.Frame.Data ~flow:d.ctx ~seq:slot ~payload_len:len
      ~payload_seed:seed ()
  in
  Memory.Phys_mem.write fx.mem
    ~addr:(Memory.Addr.base_of_pfn d.tx_pages.(slot land 7))
    (Ethernet.Frame.materialize_payload ~seed ~len);
  Memory.Dma_desc.write fx.mem
    ~at:(Nic.Ring.slot_addr d.tx_ring slot)
    {
      Memory.Dma_desc.addr = Memory.Addr.base_of_pfn d.tx_pages.(slot land 7);
      len;
      flags = Memory.Dma_desc.flag_end_of_packet;
      seqno = slot land 0xFFFF;
    };
  Nic.Dp.stage_tx_meta fx.dp ~ctx:d.ctx frame;
  d.tx_prod <- slot + 1;
  Nic.Dp.tx_doorbell fx.dp ~ctx:d.ctx ~prod:d.tx_prod

let run fx ms = Sim.Engine.run fx.engine ~until:(Sim.Time.add (Sim.Engine.now fx.engine) (Sim.Time.ms ms))

let test_dp_transmits () =
  let fx = dp_fixture () in
  let d = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  let got = ref [] in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun f -> got := f :: !got);
  send_one fx d ();
  run fx 1;
  check_int "one frame on wire" 1 (List.length !got);
  check_int "tx completion" 1 (Nic.Dp.take_tx_completions fx.dp ~ctx:0);
  check_int "ctx counter" 1 (ctx_tx_frames fx ~ctx:0);
  check_bool "notified" true (Hashtbl.mem fx.notifications 0)

let test_dp_receive_demux_by_mac () =
  let fx = dp_fixture () in
  let _d0 = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  let _d1 = attach_driver fx ~ctx:1 ~mac:(Ethernet.Mac_addr.make 2) in
  let send_to mac =
    Ethernet.Link.send fx.link ~from:Ethernet.Link.B
      (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 500) ~dst:mac
         ~kind:Ethernet.Frame.Data ~flow:9 ~seq:0 ~payload_len:500
         ~payload_seed:1 ())
      ~on_wire_free:ignore
  in
  send_to (Ethernet.Mac_addr.make 1);
  send_to (Ethernet.Mac_addr.make 2);
  send_to (Ethernet.Mac_addr.make 2);
  run fx 1;
  check_int "ctx0 got one" 1 (List.length (Nic.Dp.take_rx_completions fx.dp ~ctx:0 ~max:10));
  check_int "ctx1 got two" 2 (List.length (Nic.Dp.take_rx_completions fx.dp ~ctx:1 ~max:10))

let test_dp_unknown_mac_dropped () =
  let fx = dp_fixture () in
  let _d0 = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  Ethernet.Link.send fx.link ~from:Ethernet.Link.B
    (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 500)
       ~dst:(Ethernet.Mac_addr.make 77) ~kind:Ethernet.Frame.Data ~flow:0
       ~seq:0 ~payload_len:100 ~payload_seed:0 ())
    ~on_wire_free:ignore;
  run fx 1;
  check_int "dropped" 1 (count fx "nic.rx_no_ctx_drops")

let test_dp_promiscuous () =
  let fx = dp_fixture () in
  let _d0 = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  Nic.Dp.set_promiscuous fx.dp ~ctx:(Some 0);
  Ethernet.Link.send fx.link ~from:Ethernet.Link.B
    (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 500)
       ~dst:(Ethernet.Mac_addr.make 77) ~kind:Ethernet.Frame.Data ~flow:0
       ~seq:0 ~payload_len:100 ~payload_seed:0 ())
    ~on_wire_free:ignore;
  run fx 1;
  check_int "captured by promisc context" 1
    (List.length (Nic.Dp.take_rx_completions fx.dp ~ctx:0 ~max:10))

let test_dp_round_robin_fairness () =
  (* Two contexts with queued transmit work get alternating service. *)
  let fx = dp_fixture () in
  let d0 = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  let d1 = attach_driver fx ~ctx:1 ~mac:(Ethernet.Mac_addr.make 2) in
  let order = ref [] in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun f ->
      order := f.Ethernet.Frame.flow :: !order);
  for _ = 1 to 4 do
    send_one fx d0 ()
  done;
  for _ = 1 to 4 do
    send_one fx d1 ()
  done;
  run fx 2;
  check_int "all sent" 8 (List.length !order);
  (* After the pipeline fills, service alternates: the sequence must not
     be 4 of one then 4 of the other. *)
  let tail = List.filteri (fun i _ -> i < 6) !order in
  check_bool "interleaved" true
    (List.exists (fun c -> c = 0) tail && List.exists (fun c -> c = 1) tail)

let test_dp_materialized_payload_integrity () =
  let fx = dp_fixture ~materialize:true () in
  let d = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  let got = ref None in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun f -> got := Some f);
  send_one fx d ~len:700 ~seed:99 ();
  run fx 1;
  match !got with
  | Some f ->
      check_bool "payload travelled and matches" true (Ethernet.Frame.data_valid f);
      check_bool "bytes present" true (f.Ethernet.Frame.data <> None)
  | None -> Alcotest.fail "no frame"

let test_dp_materialized_rx_lands_in_buffer () =
  let fx = dp_fixture ~materialize:true () in
  let d = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  let frame =
    Ethernet.Frame.with_data
      (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 500)
         ~dst:(Ethernet.Mac_addr.make 1) ~kind:Ethernet.Frame.Data ~flow:3
         ~seq:0 ~payload_len:600 ~payload_seed:42 ())
  in
  Ethernet.Link.send fx.link ~from:Ethernet.Link.B frame ~on_wire_free:ignore;
  run fx 1;
  match Nic.Dp.take_rx_completions fx.dp ~ctx:0 ~max:1 with
  | [ (idx, _) ] ->
      let buf =
        Memory.Phys_mem.read fx.mem
          ~addr:(Memory.Addr.base_of_pfn d.rx_pages.(idx land 7))
          ~len:600
      in
      check_bool "DMA wrote the real bytes" true
        (Bytes.equal buf (Ethernet.Frame.materialize_payload ~seed:42 ~len:600))
  | _ -> Alcotest.fail "expected one completion"

let test_dp_seqno_fault_halts_context () =
  let fx = dp_fixture ~seqno_checking:true () in
  let d = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  send_one fx d ();
  run fx 1;
  check_int "first ok" 1 (ctx_tx_frames fx ~ctx:0);
  (* Replay: doorbell past the last written descriptor; the stale slot
     has no valid next seqno. *)
  Nic.Dp.stage_tx_meta fx.dp ~ctx:0
    (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
       ~dst:(Ethernet.Mac_addr.make 500) ~kind:Ethernet.Frame.Data ~flow:0
       ~seq:9 ~payload_len:100 ~payload_seed:0 ());
  Nic.Dp.tx_doorbell fx.dp ~ctx:0 ~prod:(d.tx_prod + 1);
  run fx 1;
  check_bool "faulted" true (Nic.Dp.is_faulted fx.dp ~ctx:0);
  check_bool "fault reported" true
    (List.exists
       (fun (ctx, dir, f) ->
         ctx = 0 && dir = Nic.Dp.Tx
         && match f with Nic.Dp.Seqno_mismatch _ -> true | _ -> false)
       !(fx.faults));
  check_int "no more frames" 1 (ctx_tx_frames fx ~ctx:0)

let test_dp_correct_seqnos_pass () =
  let fx = dp_fixture ~seqno_checking:true () in
  let d = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  for _ = 1 to 5 do
    send_one fx d ()
  done;
  run fx 1;
  check_int "all transmitted" 5 (ctx_tx_frames fx ~ctx:0);
  check_bool "no faults" true (!(fx.faults) = [])

let test_dp_deactivate_aborts () =
  let fx = dp_fixture () in
  let d = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  let wire = ref 0 in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun _ -> incr wire);
  for _ = 1 to 8 do
    send_one fx d ()
  done;
  (* Revoke immediately: pending operations must be shut down. *)
  Nic.Dp.deactivate fx.dp ~ctx:0;
  run fx 2;
  check_bool "not all reached the wire" true (!wire < 8);
  check_bool "inactive" false (Nic.Dp.is_active fx.dp ~ctx:0);
  check_int "no completions" 0 (Nic.Dp.take_tx_completions fx.dp ~ctx:0);
  (* The context can be reused. *)
  Nic.Dp.activate fx.dp ~ctx:0 ~mac:(Ethernet.Mac_addr.make 9);
  check_bool "reusable" true (Nic.Dp.is_active fx.dp ~ctx:0)

let test_dp_status_writeback () =
  let fx = dp_fixture () in
  let d = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  let status_page = 100 in
  Nic.Dp.set_status_addr fx.dp ~ctx:0 (Memory.Addr.base_of_pfn status_page);
  send_one fx d ();
  send_one fx d ();
  run fx 1;
  check_int "tx cons written back" 2
    (Memory.Phys_mem.read_u32 fx.mem ~addr:(Memory.Addr.base_of_pfn status_page))

let test_dp_rx_waits_for_descriptors () =
  (* A context with no posted buffers holds packets (backpressure), and
     delivers them once descriptors arrive. *)
  let fx = dp_fixture () in
  Nic.Dp.activate fx.dp ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1);
  let rx_ring = Nic.Ring.create ~base:(Memory.Addr.base_of_pfn 40) ~slots:8 () in
  Nic.Dp.set_rx_ring fx.dp ~ctx:0 rx_ring;
  Ethernet.Link.send fx.link ~from:Ethernet.Link.B
    (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 500)
       ~dst:(Ethernet.Mac_addr.make 1) ~kind:Ethernet.Frame.Data ~flow:0 ~seq:0
       ~payload_len:300 ~payload_seed:0 ())
    ~on_wire_free:ignore;
  run fx 1;
  check_int "held, not delivered" 0 (Nic.Dp.rx_completions_pending fx.dp ~ctx:0);
  (* Now post a buffer. *)
  Memory.Dma_desc.write fx.mem ~at:(Nic.Ring.slot_addr rx_ring 0)
    {
      Memory.Dma_desc.addr = Memory.Addr.base_of_pfn 41;
      len = Memory.Addr.page_size;
      flags = 0;
      seqno = 0;
    };
  Nic.Dp.rx_doorbell fx.dp ~ctx:0 ~prod:1;
  run fx 1;
  check_int "delivered after doorbell" 1
    (Nic.Dp.rx_completions_pending fx.dp ~ctx:0)

let test_dp_doorbell_monotonicity () =
  (* A producer index that goes backwards is guest input: it faults the
     context it names, on either ring, instead of raising. *)
  let fx = dp_fixture () in
  let _ = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  let d1 = attach_driver fx ~ctx:1 ~mac:(Ethernet.Mac_addr.make 2) in
  Nic.Dp.tx_doorbell fx.dp ~ctx:0 ~prod:0;
  Nic.Dp.tx_doorbell fx.dp ~ctx:0 ~prod:(-1);
  check_bool "tx backwards faults ctx0" true (Nic.Dp.is_faulted fx.dp ~ctx:0);
  Nic.Dp.rx_doorbell fx.dp ~ctx:1 ~prod:(d1.rx_prod - 1);
  check_bool "rx backwards faults ctx1" true (Nic.Dp.is_faulted fx.dp ~ctx:1);
  match List.rev !(fx.faults) with
  | [
   ( 0,
     Nic.Dp.Tx,
     Nic.Dp.Producer_backwards { published = 0; prod = -1 } );
   (1, Nic.Dp.Rx, Nic.Dp.Producer_backwards { published = 8; prod = 7 });
  ] ->
      ()
  | fs -> Alcotest.failf "expected two Producer_backwards faults, got %d" (List.length fs)

let test_dp_backwards_doorbell_isolated () =
  (* One context rewinding its transmit producer faults that context
     only: the run goes on and the neighbour's frames reach the wire. *)
  let fx = dp_fixture ~contexts:2 () in
  let d0 = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  let d1 = attach_driver fx ~ctx:1 ~mac:(Ethernet.Mac_addr.make 2) in
  let got = ref [] in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun f -> got := f :: !got);
  send_one fx d0 ();
  send_one fx d0 ();
  Nic.Dp.tx_doorbell fx.dp ~ctx:0 ~prod:(d0.tx_prod - 1);
  send_one fx d1 ();
  send_one fx d1 ();
  run fx 2;
  check_bool "ctx0 faulted" true (Nic.Dp.is_faulted fx.dp ~ctx:0);
  check_bool "ctx1 healthy" false (Nic.Dp.is_faulted fx.dp ~ctx:1);
  check_int "ctx1 delivered" 2 (ctx_tx_frames fx ~ctx:1);
  check_int "ctx1's frames on the wire" 2
    (List.length
       (List.filter (fun f -> f.Ethernet.Frame.flow = 1) !got))

let test_dp_congestion_watermarks () =
  (* Fill the receive buffer of a descriptor-less context past the high
     watermark and verify pause state plus the uncongested hook. *)
  let engine = Sim.Engine.create () in
  let mem = Memory.Phys_mem.create ~total_pages:256 () in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let config =
    { Nic.Nic_config.ricenic with Nic.Nic_config.rx_buffer_bytes = 8_000 }
  in
  let dp =
    Nic.Dp.create engine ~mem ~dma ~config ~contexts:1 ~dma_context_base:0
      ~notify:(fun ~ctx:_ -> ())
      ~on_fault:(fun ~ctx:_ _ _ -> ())
      ()
  in
  let link = Ethernet.Link.create engine () in
  Nic.Dp.attach_link dp link ~side:Ethernet.Link.A;
  Nic.Dp.activate dp ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1);
  let uncong = ref 0 in
  Nic.Dp.set_uncongested_hook dp (fun () -> incr uncong);
  (* No rx ring: packets pile into the buffer. 8 kB capacity, ~1538 B
     frames: congested above 6 kB, i.e. after the 4th frame. *)
  for i = 0 to 4 do
    Sim.Engine.schedule engine ~delay:(Sim.Time.us (i * 20)) (fun () ->
        Ethernet.Link.send link ~from:Ethernet.Link.B
          (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 500)
             ~dst:(Ethernet.Mac_addr.make 1) ~kind:Ethernet.Frame.Data
             ~flow:0 ~seq:i ~payload_len:1500 ~payload_seed:0 ())
          ~on_wire_free:ignore)
  done;
  Sim.Engine.run engine ~until:(Sim.Time.ms 1);
  check_bool "congested" true (Nic.Dp.rx_congested dp);
  (* Post descriptors; draining below the low watermark fires the hook. *)
  let rx_ring = Nic.Ring.create ~base:(Memory.Addr.base_of_pfn 40) ~slots:8 () in
  Nic.Dp.set_rx_ring dp ~ctx:0 rx_ring;
  for slot = 0 to 7 do
    Memory.Dma_desc.write mem ~at:(Nic.Ring.slot_addr rx_ring slot)
      {
        Memory.Dma_desc.addr = Memory.Addr.base_of_pfn (50 + slot);
        len = Memory.Addr.page_size;
        flags = 0;
        seqno = 0;
      }
  done;
  Nic.Dp.rx_doorbell dp ~ctx:0 ~prod:8;
  Sim.Engine.run engine ~until:(Sim.Time.ms 2);
  check_bool "uncongested hook fired" true (!uncong > 0);
  check_bool "no longer congested" false (Nic.Dp.rx_congested dp)

let test_dp_compact_descriptor_layout () =
  (* A NIC whose negotiated descriptor format is the 12-byte compact
     layout (paper 3.4): the driver writes through the layout and the
     datapath fetches with the right stride. *)
  let engine = Sim.Engine.create () in
  let mem = Memory.Phys_mem.create ~total_pages:256 () in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let config =
    {
      Nic.Nic_config.ricenic with
      Nic.Nic_config.desc_layout = Memory.Desc_layout.compact;
    }
  in
  let dp =
    Nic.Dp.create engine ~mem ~dma ~config ~contexts:1 ~dma_context_base:0
      ~notify:(fun ~ctx:_ -> ())
      ~on_fault:(fun ~ctx:_ _ _ -> ())
      ()
  in
  let link = Ethernet.Link.create engine () in
  Nic.Dp.attach_link dp link ~side:Ethernet.Link.A;
  Nic.Dp.activate dp ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1);
  let layout = Memory.Desc_layout.compact in
  let ring =
    Nic.Ring.create ~base:(Memory.Addr.base_of_pfn 8) ~slots:8
      ~desc_bytes:layout.Memory.Desc_layout.size ()
  in
  Nic.Dp.set_tx_ring dp ~ctx:0 ring;
  let wire = ref 0 in
  Ethernet.Link.attach link Ethernet.Link.B (fun _ -> incr wire);
  for slot = 0 to 2 do
    Memory.Desc_layout.write layout mem
      ~at:(Nic.Ring.slot_addr ring slot)
      {
        Memory.Dma_desc.addr = Memory.Addr.base_of_pfn (20 + slot);
        len = 600;
        flags = Memory.Dma_desc.flag_end_of_packet;
        seqno = slot;
      };
    Nic.Dp.stage_tx_meta dp ~ctx:0
      (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
         ~dst:(Ethernet.Mac_addr.make 9) ~kind:Ethernet.Frame.Data ~flow:0
         ~seq:slot ~payload_len:600 ~payload_seed:0 ())
  done;
  Nic.Dp.tx_doorbell dp ~ctx:0 ~prod:3;
  Sim.Engine.run engine ~until:(Sim.Time.ms 1);
  check_int "all sent under compact layout" 3 !wire;
  (* The ring really is packed at the 12-byte stride. *)
  check_int "stride" 12 (Nic.Ring.slot_addr ring 1 - Nic.Ring.slot_addr ring 0)

let test_dp_scatter_gather () =
  (* A packet described by three descriptors (flags without EOP until the
     last) is coalesced by the NIC into one wire frame whose payload is
     the concatenation of the fragments. *)
  let fx = dp_fixture ~materialize:true () in
  Nic.Dp.activate fx.dp ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1);
  let ring = Nic.Ring.create ~base:(Memory.Addr.base_of_pfn 8) ~slots:8 () in
  Nic.Dp.set_tx_ring fx.dp ~ctx:0 ring;
  let wire = ref [] in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun f -> wire := f :: !wire);
  (* Stage the full payload across three buffer pages. *)
  let payload = Ethernet.Frame.materialize_payload ~seed:77 ~len:900 in
  let frag_lens = [ 100; 300; 500 ] in
  let offsets = [ 0; 100; 400 ] in
  List.iteri
    (fun i (off, len) ->
      let pfn = 20 + i in
      Memory.Phys_mem.write fx.mem
        ~addr:(Memory.Addr.base_of_pfn pfn)
        (Bytes.sub payload off len);
      Memory.Dma_desc.write fx.mem
        ~at:(Nic.Ring.slot_addr ring i)
        {
          Memory.Dma_desc.addr = Memory.Addr.base_of_pfn pfn;
          len;
          flags =
            (if i = 2 then Memory.Dma_desc.flag_end_of_packet else 0);
          seqno = i;
        })
    (List.combine offsets frag_lens);
  Nic.Dp.stage_tx_meta fx.dp ~ctx:0
    (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
       ~dst:(Ethernet.Mac_addr.make 9) ~kind:Ethernet.Frame.Data ~flow:0
       ~seq:0 ~payload_len:900 ~payload_seed:77 ());
  Nic.Dp.tx_doorbell fx.dp ~ctx:0 ~prod:3;
  run fx 1;
  (match !wire with
  | [ f ] ->
      check_int "one frame from three descriptors" 900
        f.Ethernet.Frame.payload_len;
      check_bool "payload reassembled exactly" true
        (Ethernet.Frame.data_valid f)
  | l -> Alcotest.fail (Printf.sprintf "expected 1 frame, got %d" (List.length l)));
  (* Completions count descriptors, so the driver's ring bookkeeping
     stays in step. *)
  check_int "three descriptors completed" 3
    (Nic.Dp.take_tx_completions fx.dp ~ctx:0);
  check_int "one frame counted" 1 (ctx_tx_frames fx ~ctx:0)

let test_dp_scatter_gather_interleaves_contexts () =
  (* A context stalled mid-packet (fragments posted, EOP not yet) must not
     block another context's traffic. *)
  let fx = dp_fixture ~contexts:2 () in
  let d1 = attach_driver fx ~ctx:1 ~mac:(Ethernet.Mac_addr.make 2) in
  Nic.Dp.activate fx.dp ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1);
  let ring = Nic.Ring.create ~base:(Memory.Addr.base_of_pfn 8) ~slots:8 () in
  Nic.Dp.set_tx_ring fx.dp ~ctx:0 ring;
  let wire = ref [] in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun f -> wire := f :: !wire);
  (* ctx 0: first fragment only — no EOP, packet incomplete. *)
  Memory.Dma_desc.write fx.mem ~at:(Nic.Ring.slot_addr ring 0)
    {
      Memory.Dma_desc.addr = Memory.Addr.base_of_pfn 20;
      len = 100;
      flags = 0;
      seqno = 0;
    };
  Nic.Dp.tx_doorbell fx.dp ~ctx:0 ~prod:1;
  (* ctx 1: a complete ordinary packet. *)
  send_one fx d1 ();
  run fx 1;
  check_int "ctx1's packet got through" 1 (List.length !wire);
  check_int "ctx1 frame" 1 (ctx_tx_frames fx ~ctx:1);
  check_int "ctx0 still assembling" 0 (ctx_tx_frames fx ~ctx:0);
  (* Completing ctx 0's packet releases it. *)
  Memory.Dma_desc.write fx.mem ~at:(Nic.Ring.slot_addr ring 1)
    {
      Memory.Dma_desc.addr = Memory.Addr.base_of_pfn 21;
      len = 200;
      flags = Memory.Dma_desc.flag_end_of_packet;
      seqno = 1;
    };
  Nic.Dp.stage_tx_meta fx.dp ~ctx:0
    (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
       ~dst:(Ethernet.Mac_addr.make 9) ~kind:Ethernet.Frame.Data ~flow:0
       ~seq:0 ~payload_len:300 ~payload_seed:0 ());
  Nic.Dp.tx_doorbell fx.dp ~ctx:0 ~prod:2;
  run fx 1;
  check_int "ctx0 completed" 1 (ctx_tx_frames fx ~ctx:0)

let test_dp_revoke_mid_sg_packet_releases_buffer () =
  (* Deactivating a context that is mid-assembly (fragments fetched, no
     EOP yet, fetch engine idle) must release its buffer reservation;
     otherwise repeated revocations leak the transmit buffer dry. *)
  (* Small transmit buffer so a leak exhausts it within a few rounds. *)
  let engine = Sim.Engine.create () in
  let mem = Memory.Phys_mem.create ~total_pages:256 () in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let config =
    { Nic.Nic_config.ricenic with Nic.Nic_config.tx_buffer_bytes = 8_000 }
  in
  let dp =
    Nic.Dp.create engine ~mem ~dma ~config ~contexts:4 ~dma_context_base:0
      ~notify:(fun ~ctx:_ -> ())
      ~on_fault:(fun ~ctx:_ _ _ -> ())
      ()
  in
  let link = Ethernet.Link.create engine () in
  Nic.Dp.attach_link dp link ~side:Ethernet.Link.A;
  let fx =
    {
      engine;
      mem;
      dp;
      link;
      notifications = Hashtbl.create 8;
      faults = ref [];
      metrics = dp_metrics dp;
    }
  in
  for round = 0 to 40 do
    let mac = Ethernet.Mac_addr.make (100 + round) in
    Nic.Dp.activate fx.dp ~ctx:0 ~mac;
    let ring = Nic.Ring.create ~base:(Memory.Addr.base_of_pfn 8) ~slots:8 () in
    Nic.Dp.set_tx_ring fx.dp ~ctx:0 ring;
    Memory.Dma_desc.write fx.mem ~at:(Nic.Ring.slot_addr ring 0)
      {
        Memory.Dma_desc.addr = Memory.Addr.base_of_pfn 20;
        len = 100;
        flags = 0 (* no EOP: packet stays in assembly *);
        seqno = 0;
      };
    Nic.Dp.tx_doorbell fx.dp ~ctx:0 ~prod:1;
    run fx 1;
    Nic.Dp.deactivate fx.dp ~ctx:0;
    check_int "accounting back to zero each round" 0
      (Nic.Dp.tx_buffer_in_use fx.dp)
  done;
  (* After all those cycles, a fresh context still transmits: the buffer
     was not leaked away. *)
  let d = attach_driver fx ~ctx:1 ~mac:(Ethernet.Mac_addr.make 1) in
  let wire = ref 0 in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun _ -> incr wire);
  send_one fx d ();
  run fx 1;
  check_int "buffer not leaked" 1 !wire

let test_dp_tx_stall_on_full_buffer () =
  (* A transmit buffer with room for a single frame reservation: the fetch
     stage must stall (rather than fetch anyway and later underflow the
     shared-buffer accounting) and drain everything as the wire stage
     frees space. *)
  let engine = Sim.Engine.create () in
  let mem = Memory.Phys_mem.create ~total_pages:256 () in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let config =
    { Nic.Nic_config.ricenic with Nic.Nic_config.tx_buffer_bytes = 2_000 }
  in
  let dp =
    Nic.Dp.create engine ~mem ~dma ~config ~contexts:4 ~dma_context_base:0
      ~notify:(fun ~ctx:_ -> ())
      ~on_fault:(fun ~ctx:_ _ _ -> ())
      ()
  in
  let link = Ethernet.Link.create engine () in
  Nic.Dp.attach_link dp link ~side:Ethernet.Link.A;
  let fx =
    {
      engine;
      mem;
      dp;
      link;
      notifications = Hashtbl.create 8;
      faults = ref [];
      metrics = dp_metrics dp;
    }
  in
  let d = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  let wire = ref 0 in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun _ -> incr wire);
  for _ = 1 to 6 do
    send_one fx d ()
  done;
  run fx 5;
  check_int "all frames drained through the stall" 6 !wire;
  check_int "no faults" 0 (count fx "nic.faults");
  check_int "buffer accounting back to zero" 0 (Nic.Dp.tx_buffer_in_use fx.dp)

let test_dp_rx_short_descriptor_truncates () =
  (* A posted buffer shorter than the arriving frame: only the bytes that
     fit are delivered and the truncation is counted. *)
  let fx = dp_fixture () in
  Nic.Dp.activate fx.dp ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1);
  let rx_ring = Nic.Ring.create ~base:(Memory.Addr.base_of_pfn 40) ~slots:8 () in
  Nic.Dp.set_rx_ring fx.dp ~ctx:0 rx_ring;
  Memory.Dma_desc.write fx.mem ~at:(Nic.Ring.slot_addr rx_ring 0)
    {
      Memory.Dma_desc.addr = Memory.Addr.base_of_pfn 41;
      len = 300;
      flags = 0;
      seqno = 0;
    };
  Nic.Dp.rx_doorbell fx.dp ~ctx:0 ~prod:1;
  Ethernet.Link.send fx.link ~from:Ethernet.Link.B
    (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 500)
       ~dst:(Ethernet.Mac_addr.make 1) ~kind:Ethernet.Frame.Data ~flow:0 ~seq:0
       ~payload_len:1000 ~payload_seed:0 ())
    ~on_wire_free:ignore;
  run fx 1;
  check_int "delivered" 1 (Nic.Dp.rx_completions_pending fx.dp ~ctx:0);
  check_int "truncation counted" 1 (count fx "nic.rx_truncated");
  check_int "only delivered bytes counted" 300 (count fx "nic.rx_bytes");
  check_int "rx buffer drained" 0 (Nic.Dp.rx_buffer_in_use fx.dp)

(* Context detach with a descriptor fetch and an rx delivery in flight:
   the record rolls each cursor back exactly as far as its in-flight
   operation got, so after detach + attach the context re-fetches
   the same transmit descriptor and the next receive lands in the slot
   whose seqno the NIC expects, with no seqno fault either way. *)
let save_mid_flight ~after_ns =
  let fx = dp_fixture ~seqno_checking:true () in
  let mac = Ethernet.Mac_addr.make 1 in
  let d = attach_driver fx ~ctx:0 ~mac in
  let wired = ref [] in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun f ->
      wired := f.Ethernet.Frame.seq :: !wired);
  let inbound seq =
    Ethernet.Link.send fx.link ~from:Ethernet.Link.B
      (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 500) ~dst:mac
         ~kind:Ethernet.Frame.Data ~flow:9 ~seq ~payload_len:1500
         ~payload_seed:seq ())
      ~on_wire_free:ignore
  in
  (* The inbound frame arrives at 12804 ns and starts its descriptor
     fetch; the transmit doorbell starts a fetch right behind it. *)
  inbound 0;
  Sim.Engine.run fx.engine ~until:(Sim.Time.ns 12_804);
  send_one fx d ();
  Sim.Engine.run fx.engine ~until:(Sim.Time.ns (12_804 + after_ns));
  let image = Nic.Dp.detach fx.dp ~ctx:0 in
  run fx 1;
  check_int "nothing wired or delivered before the restore" 0
    (List.length !wired + Nic.Dp.rx_completions_pending fx.dp ~ctx:0);
  Nic.Dp.attach fx.dp ~ctx:0 image;
  inbound 1;
  run fx 1;
  check_int "no seqno faults" 0 (List.length !(fx.faults));
  check Alcotest.(list int) "the staged packet wired once" [ 0 ] !wired;
  check_int "tx completion" 1 (Nic.Dp.take_tx_completions fx.dp ~ctx:0);
  List.map fst (Nic.Dp.take_rx_completions fx.dp ~ctx:0 ~max:10)

let test_dp_save_mid_descriptor () =
  (* Both descriptor reads in flight: neither consumed a seqno, so both
     cursors roll back and the next receive reuses slot 0. *)
  check Alcotest.(list int) "rx slot" [ 0 ] (save_mid_flight ~after_ns:1)

let test_dp_save_mid_payload () =
  (* Both descriptors read and checked, payloads in flight: transmit
     still rolls back (it is lossless), receive keeps slot 0 consumed
     and the next frame lands in slot 1. *)
  check Alcotest.(list int) "rx slot" [ 1 ] (save_mid_flight ~after_ns:1_000)

let test_dp_deactivate_mid_fetch_releases_buffer () =
  (* Deactivation while the descriptor-fetch DMA is still in flight: the
     completion observes the epoch bump and releases the buffer
     reservation taken at fetch admission. *)
  let fx = dp_fixture () in
  let d = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  send_one fx d ();
  (* No run between doorbell and deactivate: the fetch is in flight. *)
  Nic.Dp.deactivate fx.dp ~ctx:0;
  run fx 2;
  check_int "reservation released" 0 (Nic.Dp.tx_buffer_in_use fx.dp);
  check_int "nothing transmitted" 0 (count fx "nic.tx_frames");
  (* The datapath still works for another context. *)
  let d1 = attach_driver fx ~ctx:1 ~mac:(Ethernet.Mac_addr.make 2) in
  let wire = ref 0 in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun _ -> incr wire);
  send_one fx d1 ();
  run fx 1;
  check_int "other context transmits" 1 !wire

let test_dp_injected_dma_fault_isolated () =
  (* A seed-driven injected bus fault on one context faults that context
     only; its neighbor keeps transmitting. *)
  let fx = dp_fixture ~contexts:2 () in
  let d0 = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  let d1 = attach_driver fx ~ctx:1 ~mac:(Ethernet.Mac_addr.make 2) in
  let fi = Sim.Fault_inject.create ~seed:7 in
  Sim.Fault_inject.arm fi ~site:"dma"
    (Sim.Fault_inject.plan ~ctx:(0, 0) Sim.Fault_inject.One_shot);
  Bus.Dma_engine.set_fault_injector (Nic.Dp.dma fx.dp)
    (Some
       (fun ~context ~addr ~len:_ ->
         Sim.Fault_inject.fire fi ~site:"dma" ~ctx:context ~addr ()));
  send_one fx d0 ();
  send_one fx d1 ();
  run fx 2;
  check_bool "ctx0 faulted" true (Nic.Dp.is_faulted fx.dp ~ctx:0);
  check_bool "ctx1 healthy" false (Nic.Dp.is_faulted fx.dp ~ctx:1);
  check_int "ctx1 delivered" 1 (ctx_tx_frames fx ~ctx:1);
  check_int "one injection recorded" 1
    (Bus.Dma_engine.injected_faults (Nic.Dp.dma fx.dp));
  check_bool "fault attributed to ctx0" true
    (List.exists (fun (ctx, _, _) -> ctx = 0) !(fx.faults));
  check_int "buffer accounting clean" 0 (Nic.Dp.tx_buffer_in_use fx.dp)

let test_link_tamper_drop_and_corrupt () =
  let fx = dp_fixture () in
  let d = attach_driver fx ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1) in
  let got = ref [] in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun f -> got := f :: !got);
  let fi = Sim.Fault_inject.create ~seed:3 in
  Sim.Fault_inject.arm fi ~site:"wire"
    (Sim.Fault_inject.plan (Sim.Fault_inject.Nth 2));
  Ethernet.Link.set_tamper fx.link
    (Some
       (fun _ ->
         if Sim.Fault_inject.fire fi ~site:"wire" () then `Drop else `Pass));
  for _ = 1 to 4 do
    send_one fx d ()
  done;
  run fx 2;
  check_int "second frame dropped" 3 (List.length !got);
  check_int "drop counted" 1 (Ethernet.Link.dropped fx.link);
  (* The sender still paid the wire time: all four frames completed. *)
  check_int "sender-side completions" 4 (Nic.Dp.take_tx_completions fx.dp ~ctx:0);
  (* Corruption: delivery happens, but the payload identity is broken. *)
  Ethernet.Link.set_tamper fx.link (Some (fun _ -> `Corrupt));
  got := [];
  send_one fx d ();
  run fx 2;
  (match !got with
  | [ f ] ->
      check_int "payload seed corrupted" (5 lxor 0x5a5a)
        f.Ethernet.Frame.payload_seed
  | l ->
      Alcotest.fail (Printf.sprintf "expected 1 frame, got %d" (List.length l)));
  check_int "corruption counted" 1 (Ethernet.Link.corrupted fx.link);
  Ethernet.Link.set_tamper fx.link None;
  got := [];
  send_one fx d ();
  run fx 2;
  check_int "tamper removed" 5 (List.hd !got).Ethernet.Frame.payload_seed

let prop_dp_conserves_frames =
  (* Random interleavings of sends across contexts: every staged packet
     eventually reaches the wire exactly once and is reported as exactly
     one completion; buffers drain to empty. *)
  QCheck.Test.make ~name:"datapath conserves frames" ~count:25
    QCheck.(list_of_size (Gen.int_range 1 40) (pair (int_range 0 2) (int_range 64 1500)))
    (fun sends ->
      let fx = dp_fixture ~contexts:3 () in
      let drivers =
        Array.init 3 (fun i ->
            attach_driver fx ~ctx:i ~mac:(Ethernet.Mac_addr.make (i + 1)))
      in
      let on_wire = ref 0 in
      Ethernet.Link.attach fx.link Ethernet.Link.B (fun _ -> incr on_wire);
      (* Spread the sends over time so rings never overflow (8 slots). *)
      List.iteri
        (fun i (ctx, len) ->
          Sim.Engine.schedule fx.engine
            ~delay:(Sim.Time.us (i * 120))
            (fun () -> send_one fx drivers.(ctx) ~len ()))
        sends;
      Sim.Engine.run fx.engine ~until:(Sim.Time.ms 50);
      let completions =
        Nic.Dp.take_tx_completions fx.dp ~ctx:0
        + Nic.Dp.take_tx_completions fx.dp ~ctx:1
        + Nic.Dp.take_tx_completions fx.dp ~ctx:2
      in
      !on_wire = List.length sends
      && completions = List.length sends
      && count fx "nic.faults" = 0)

(* ---------- Firmware / conventional NICs ---------- *)

let test_firmware_ring_setup_via_mailboxes () =
  let fx = dp_fixture () in
  let fw = Nic.Firmware.create fx.engine ~dp:fx.dp ~process_cost:(Sim.Time.ns 200) () in
  Nic.Dp.activate fx.dp ~ctx:0 ~mac:(Ethernet.Mac_addr.make 1);
  let mapping = Bus.Mmio.map (Nic.Firmware.region fw ~ctx:0) in
  let hw = Nic.Firmware.driver_if fw ~ctx:0 ~mapping in
  hw.Nic.Driver_if.setup_tx_ring
    (Nic.Ring.create ~base:(Memory.Addr.base_of_pfn 20) ~slots:8 ());
  hw.Nic.Driver_if.setup_rx_ring
    (Nic.Ring.create ~base:(Memory.Addr.base_of_pfn 21) ~slots:8 ());
  hw.Nic.Driver_if.setup_status (Memory.Addr.base_of_pfn 22);
  (* Write one descriptor and doorbell through the PIO path. *)
  Memory.Dma_desc.write fx.mem
    ~at:(Memory.Addr.base_of_pfn 20)
    {
      Memory.Dma_desc.addr = Memory.Addr.base_of_pfn 23;
      len = 400;
      flags = Memory.Dma_desc.flag_end_of_packet;
      seqno = 0;
    };
  hw.Nic.Driver_if.stage_tx_meta
    (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
       ~dst:(Ethernet.Mac_addr.make 500) ~kind:Ethernet.Frame.Data ~flow:0
       ~seq:0 ~payload_len:400 ~payload_seed:0 ());
  hw.Nic.Driver_if.tx_doorbell 1;
  run fx 1;
  check_int "frame sent via firmware path" 1 (ctx_tx_frames fx ~ctx:0);
  check_bool "events processed" true (Nic.Firmware.events_processed fw >= 6)

let conventional_roundtrip config =
  (* Loopback two NICs over one link using their native driver-if. *)
  let engine = Sim.Engine.create () in
  let mem = Memory.Phys_mem.create ~total_pages:512 () in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let link = Ethernet.Link.create engine () in
  let make_nic irq base =
    Bus.Irq.set_handler irq (fun () -> ());
    let nic =
      Nic.Conventional.create engine ~mem ~dma ~config ~irq ~dma_context:base
    in
    Nic.Conventional.enable nic
      ~mac:(Ethernet.Mac_addr.make (if base = 0 then 1 else 2));
    (Nic.Conventional.dp nic, Nic.Conventional.driver_if nic)
  in
  let irq_a = Bus.Irq.create () and irq_b = Bus.Irq.create () in
  let dp_a, hw_a = make_nic irq_a 0 in
  let dp_b, hw_b = make_nic irq_b 64 in
  Nic.Dp.attach_link dp_a link ~side:Ethernet.Link.A;
  Nic.Dp.attach_link dp_b link ~side:Ethernet.Link.B;
  (* Set up A's tx ring and B's rx ring. *)
  let tx_ring = Nic.Ring.create ~base:(Memory.Addr.base_of_pfn 10) ~slots:8 () in
  hw_a.Nic.Driver_if.setup_tx_ring tx_ring;
  let rx_ring = Nic.Ring.create ~base:(Memory.Addr.base_of_pfn 11) ~slots:8 () in
  Nic.Dp.set_rx_ring dp_b ~ctx:0 rx_ring;
  for slot = 0 to 7 do
    Memory.Dma_desc.write mem ~at:(Nic.Ring.slot_addr rx_ring slot)
      {
        Memory.Dma_desc.addr = Memory.Addr.base_of_pfn (20 + slot);
        len = Memory.Addr.page_size;
        flags = 0;
        seqno = slot;
      }
  done;
  Nic.Dp.rx_doorbell dp_b ~ctx:0 ~prod:8;
  (* Send a frame from A addressed to B. *)
  Memory.Dma_desc.write mem ~at:(Nic.Ring.slot_addr tx_ring 0)
    {
      Memory.Dma_desc.addr = Memory.Addr.base_of_pfn 30;
      len = 800;
      flags = Memory.Dma_desc.flag_end_of_packet;
      seqno = 0;
    };
  hw_a.Nic.Driver_if.stage_tx_meta
    (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
       ~dst:(Ethernet.Mac_addr.make 2) ~kind:Ethernet.Frame.Data ~flow:0 ~seq:0
       ~payload_len:800 ~payload_seed:0 ());
  hw_a.Nic.Driver_if.tx_doorbell 1;
  Sim.Engine.run engine ~until:(Sim.Time.ms 2);
  check_int "received by B" 1
    (List.length (hw_b.Nic.Driver_if.take_rx_completions ~max:10));
  check_int "irq raised at B" 1 (Bus.Irq.count irq_b)

let test_intel_nic_roundtrip () = conventional_roundtrip Nic.Nic_config.intel
let test_ricenic_roundtrip () = conventional_roundtrip Nic.Nic_config.ricenic

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "nic.ring",
      [
        Alcotest.test_case "layout" `Quick test_ring_layout;
        Alcotest.test_case "occupancy" `Quick test_ring_occupancy;
        Alcotest.test_case "validation" `Quick test_ring_validation;
      ] );
    ( "nic.mailbox",
      [
        Alcotest.test_case "event hierarchy" `Quick test_mailbox_event_hierarchy;
        Alcotest.test_case "lowest first" `Quick test_mailbox_lowest_first;
        Alcotest.test_case "shared memory words" `Quick test_mailbox_beyond_mailbox_words;
        Alcotest.test_case "poke silent" `Quick test_mailbox_poke_silent;
        qcheck prop_mailbox_decode_matches_vectors;
      ] );
    ("nic.pkt_buf", [ Alcotest.test_case "reserve/release" `Quick test_pkt_buf ]);
    ( "nic.coalesce",
      [
        Alcotest.test_case "caps rate" `Quick test_coalesce_caps_rate;
        Alcotest.test_case "immediate when idle" `Quick test_coalesce_immediate_when_idle;
        Alcotest.test_case "accounting invariant" `Quick
          test_coalesce_accounting_invariant;
      ] );
    ( "nic.dp",
      [
        Alcotest.test_case "transmits" `Quick test_dp_transmits;
        Alcotest.test_case "rx demux by mac" `Quick test_dp_receive_demux_by_mac;
        Alcotest.test_case "unknown mac dropped" `Quick test_dp_unknown_mac_dropped;
        Alcotest.test_case "promiscuous" `Quick test_dp_promiscuous;
        Alcotest.test_case "round robin" `Quick test_dp_round_robin_fairness;
        Alcotest.test_case "materialized tx integrity" `Quick
          test_dp_materialized_payload_integrity;
        Alcotest.test_case "materialized rx buffer" `Quick
          test_dp_materialized_rx_lands_in_buffer;
        Alcotest.test_case "seqno fault halts" `Quick test_dp_seqno_fault_halts_context;
        Alcotest.test_case "correct seqnos pass" `Quick test_dp_correct_seqnos_pass;
        Alcotest.test_case "deactivate aborts" `Quick test_dp_deactivate_aborts;
        Alcotest.test_case "status writeback" `Quick test_dp_status_writeback;
        Alcotest.test_case "rx waits for descriptors" `Quick
          test_dp_rx_waits_for_descriptors;
        Alcotest.test_case "doorbell monotonicity" `Quick test_dp_doorbell_monotonicity;
        Alcotest.test_case "backwards doorbell isolated" `Quick
          test_dp_backwards_doorbell_isolated;
        Alcotest.test_case "congestion watermarks" `Quick test_dp_congestion_watermarks;
        Alcotest.test_case "compact descriptor layout" `Quick
          test_dp_compact_descriptor_layout;
        Alcotest.test_case "scatter/gather coalescing" `Quick test_dp_scatter_gather;
        Alcotest.test_case "scatter/gather interleaving" `Quick
          test_dp_scatter_gather_interleaves_contexts;
        Alcotest.test_case "revoke mid-sg releases buffer" `Quick
          test_dp_revoke_mid_sg_packet_releases_buffer;
        Alcotest.test_case "tx stall on full buffer" `Quick
          test_dp_tx_stall_on_full_buffer;
        Alcotest.test_case "rx short descriptor truncates" `Quick
          test_dp_rx_short_descriptor_truncates;
        Alcotest.test_case "deactivate mid-fetch releases buffer" `Quick
          test_dp_deactivate_mid_fetch_releases_buffer;
        Alcotest.test_case "injected dma fault isolated" `Quick
          test_dp_injected_dma_fault_isolated;
        Alcotest.test_case "link tamper drop/corrupt" `Quick
          test_link_tamper_drop_and_corrupt;
        qcheck prop_dp_conserves_frames;
        Alcotest.test_case "save mid-descriptor restores cursors" `Quick
          test_dp_save_mid_descriptor;
        Alcotest.test_case "save mid-payload restores cursors" `Quick
          test_dp_save_mid_payload;
      ] );
    ( "nic.wrappers",
      [
        Alcotest.test_case "firmware mailbox path" `Quick
          test_firmware_ring_setup_via_mailboxes;
        Alcotest.test_case "intel roundtrip" `Quick test_intel_nic_roundtrip;
        Alcotest.test_case "ricenic roundtrip" `Quick test_ricenic_roundtrip;
      ] );
  ]
