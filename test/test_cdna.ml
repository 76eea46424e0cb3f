(* Tests for the core CDNA library: sequence numbers, the interrupt
   bit-vector buffer, the CDNA NIC, the hypervisor protection extension,
   and the guest driver end to end. *)

(* The cost records these tests' expected values were measured with. *)
let xen_costs =
  {
    Xen.Costs.isr = Sim.Time.ns 1_500;
    virq_dispatch = Sim.Time.ns 800;
    event_notify = Sim.Time.ns 900;
    grant_map = Sim.Time.ns 550;
    grant_transfer = Sim.Time.ns 1_100;
    domain_create = Sim.Time.us 100;
  }

let cdna_costs =
  {
    Cdna.Cdna_costs.hypercall_fixed = Sim.Time.ns 900;
    validate_per_desc = Sim.Time.ns 420;
    unpin_per_desc = Sim.Time.ns 90;
    iommu_per_desc = Sim.Time.ns 220;
    intr_decode_fixed = Sim.Time.ns 600;
    map_context = Sim.Time.us 20;
    pio_doorbell = Sim.Time.ns 120;
    context_swap = Sim.Time.us 45;
  }

let os_costs =
  {
    Guestos.Os_costs.stack_tx_per_pkt = Sim.Time.ns 1_400;
    stack_rx_per_pkt = Sim.Time.ns 1_900;
    stack_wakeup_fixed = Sim.Time.ns 900;
    driver_tx_per_pkt = Sim.Time.ns 900;
    driver_rx_per_pkt = Sim.Time.ns 1_100;
    driver_wakeup_fixed = Sim.Time.us 2;
    app_per_pkt = Sim.Time.ns 60;
    app_wakeup = Sim.Time.ns 500;
    rx_poll_budget = 64;
    tx_batch_limit = 64;
  }

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let us = Sim.Time.us

(* ---------- Seqno ---------- *)

let test_seqno_basics () =
  check_int "modulus" 65536 Cdna.Seqno.modulus;
  check_int "max ring" 32768 Cdna.Seqno.max_ring_slots;
  check_int "next" 1 (Cdna.Seqno.next 0);
  check_int "wrap" 0 (Cdna.Seqno.next 65535);
  check_bool "continuous" true (Cdna.Seqno.continuous ~expected:5 ~got:5);
  check_bool "not continuous" false (Cdna.Seqno.continuous ~expected:5 ~got:6)

let test_seqno_stale_detection () =
  (* A stale descriptor carries expected - ring_slots; with the modulus at
     least twice the ring size it can never equal the expected value. *)
  check_int "stale value" (65536 - 256) (Cdna.Seqno.stale_value ~expected:0 ~ring_slots:256);
  check_bool "stale never matches" false
    (Cdna.Seqno.continuous ~expected:10
       ~got:(Cdna.Seqno.stale_value ~expected:10 ~ring_slots:256))

let prop_seqno_no_alias =
  QCheck.Test.make
    ~name:"stale seqno never aliases for any valid ring size and position"
    ~count:500
    QCheck.(pair (int_range 0 65535) (int_range 1 32768))
    (fun (expected, ring_slots) ->
      let stale = Cdna.Seqno.stale_value ~expected ~ring_slots in
      not (Cdna.Seqno.continuous ~expected ~got:stale))

let prop_seqno_wraparound_continuity =
  QCheck.Test.make ~name:"sequence remains continuous across wraparound"
    ~count:200
    QCheck.(int_range 0 65535)
    (fun start ->
      let next = Cdna.Seqno.next start in
      Cdna.Seqno.continuous ~expected:next ~got:next
      && next = (start + 1) mod 65536)

(* ---------- Intr_vector ---------- *)

let intr_fixture ?(slots = 4) () =
  let engine = Sim.Engine.create () in
  let mem = Memory.Phys_mem.create ~total_pages:16 () in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let iv =
    Cdna.Intr_vector.create ~mem ~dma ~base:(Memory.Addr.base_of_pfn 1) ~slots
      ~dma_context:0
  in
  (engine, mem, iv)

let test_intr_vector_roundtrip () =
  let engine, _, iv = intr_fixture () in
  let done_count = ref 0 in
  check_bool "post 1" true
    (Cdna.Intr_vector.try_post iv ~bits:0b1010 ~on_done:(fun () -> incr done_count));
  check_bool "post 2" true
    (Cdna.Intr_vector.try_post iv ~bits:0b0001 ~on_done:(fun () -> incr done_count));
  ignore (Sim.Engine.run_to_completion engine);
  check_int "both landed" 2 !done_count;
  check (Alcotest.list Alcotest.int) "drained in order" [ 0b1010; 0b0001 ]
    (Cdna.Intr_vector.drain iv);
  check_int "posted" 2 (Cdna.Intr_vector.posted iv);
  check_int "drained count" 2 (Cdna.Intr_vector.drained iv)

let test_intr_vector_producer_consumer_protocol () =
  (* Vectors must never be overwritten before the host drains them. *)
  let engine, _, iv = intr_fixture ~slots:2 () in
  check_bool "1" true (Cdna.Intr_vector.try_post iv ~bits:1 ~on_done:ignore);
  check_bool "2" true (Cdna.Intr_vector.try_post iv ~bits:2 ~on_done:ignore);
  check_bool "full refuses" false (Cdna.Intr_vector.try_post iv ~bits:3 ~on_done:ignore);
  ignore (Sim.Engine.run_to_completion engine);
  check (Alcotest.list Alcotest.int) "first two preserved" [ 1; 2 ]
    (Cdna.Intr_vector.drain iv);
  (* Space recovered after drain. *)
  check_bool "post after drain" true
    (Cdna.Intr_vector.try_post iv ~bits:3 ~on_done:ignore);
  ignore (Sim.Engine.run_to_completion engine);
  check (Alcotest.list Alcotest.int) "third" [ 3 ] (Cdna.Intr_vector.drain iv)

let test_intr_vector_drain_only_landed () =
  (* A vector whose DMA has not completed is invisible to the host. *)
  let engine, _, iv = intr_fixture () in
  ignore (Cdna.Intr_vector.try_post iv ~bits:7 ~on_done:ignore);
  check (Alcotest.list Alcotest.int) "nothing landed yet" []
    (Cdna.Intr_vector.drain iv);
  ignore (Sim.Engine.run_to_completion engine);
  check (Alcotest.list Alcotest.int) "after DMA" [ 7 ] (Cdna.Intr_vector.drain iv)

(* ---------- Full CDNA system fixture ---------- *)

type fx = {
  engine : Sim.Engine.t;
  mem : Memory.Phys_mem.t;
  xen : Xen.Hypervisor.t;
  cdna : Cdna.Hyp.t;
  nic : Cdna.Cnic.t;
  link : Ethernet.Link.t;
  guest : Xen.Domain.t;
  guest2 : Xen.Domain.t;
}

let fixture ?(protection = Cdna.Cdna_costs.Full) ?(materialize = false)
    ?(paging = false) () =
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let mem = Memory.Phys_mem.create ~total_pages:8192 () in
  let xen = Xen.Hypervisor.create engine ~cpu ~mem ~costs:xen_costs () in
  let guest =
    Xen.Hypervisor.create_domain xen ~name:"g0" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:2048
  in
  let guest2 =
    Xen.Hypervisor.create_domain xen ~name:"g1" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:2048
  in
  let cdna = Cdna.Hyp.create xen ~costs:cdna_costs ~protection ~paging () in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let irq = Bus.Irq.create () in
  let intr_page = List.hd (Xen.Hypervisor.alloc_hyp_pages xen 1) in
  let config =
    {
      Cdna.Cnic.default_config with
      Nic.Nic_config.materialize_payloads = materialize;
    }
  in
  let nic =
    Cdna.Cnic.create engine ~mem ~dma ~config ~irq ~dma_context_base:0
      ~intr_base:(Memory.Addr.base_of_pfn intr_page)
      ()
  in
  Cdna.Hyp.add_nic cdna nic;
  let link = Ethernet.Link.create engine () in
  Nic.Dp.attach_link (Cdna.Cnic.dp nic) link ~side:Ethernet.Link.A;
  { engine; mem; xen; cdna; nic; link; guest; guest2 }

(* The NIC's and the CDNA hypervisor's gauges on a fresh registry, as
   [Testbed.build] registers them: tests read their counters there. *)
let metrics_of fx =
  let m = Sim.Metrics.create () in
  Cdna.Cnic.register_metrics fx.nic m ~labels:[ ("nic", "cnic0") ];
  Cdna.Hyp.register_metrics fx.cdna m;
  m

let run fx ms =
  Sim.Engine.run fx.engine
    ~until:(Sim.Time.add (Sim.Engine.now fx.engine) (Sim.Time.ms ms))

let await fx f =
  let r = ref None in
  f (fun x -> r := Some x);
  run fx 5;
  match !r with Some x -> x | None -> Alcotest.fail "hypercall never completed"

let assign fx ?(guest : Xen.Domain.t option) ~mac_idx () =
  let guest = Option.value guest ~default:fx.guest in
  match
    Cdna.Hyp.assign_context fx.cdna ~nic:fx.nic ~guest
      ~mac:(Ethernet.Mac_addr.make mac_idx) ~isr_cost:(us 1)
  with
  | Ok h -> h
  | Error `No_free_context -> Alcotest.fail "no free context"

(* Register both rings and the status page; the status page's address,
   where a test can stand in for the NIC's consumer-index writeback. *)
let setup_rings_status fx h =
  let guest = Cdna.Hyp.guest_of h in
  let page () = List.hd (Xen.Hypervisor.alloc_pages fx.xen guest 1) in
  let tx = page () and rx = page () and status = page () in
  (match
     await fx (fun k ->
         Cdna.Hyp.register_ring fx.cdna h Cdna.Hyp.Tx
           ~base:(Memory.Addr.base_of_pfn tx) ~slots:64 k)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "tx ring registration failed");
  (match
     await fx (fun k ->
         Cdna.Hyp.register_ring fx.cdna h Cdna.Hyp.Rx
           ~base:(Memory.Addr.base_of_pfn rx) ~slots:64 k)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "rx ring registration failed");
  (match
     await fx (fun k ->
         Cdna.Hyp.register_status fx.cdna h
           ~addr:(Memory.Addr.base_of_pfn status) k)
   with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "status registration failed");
  Memory.Addr.base_of_pfn status

let setup_rings fx h = ignore (setup_rings_status fx h)

let own_desc fx h ?(len = 500) () =
  let pfn = List.hd (Xen.Hypervisor.alloc_pages fx.xen (Cdna.Hyp.guest_of h) 1) in
  {
    Memory.Dma_desc.addr = Memory.Addr.base_of_pfn pfn;
    len;
    flags = Memory.Dma_desc.flag_end_of_packet;
    seqno = 0;
  }

let meta_frame h ~seq =
  ignore h;
  Ethernet.Frame.make
    ~src:(Ethernet.Mac_addr.make 1)
    ~dst:(Ethernet.Mac_addr.make 99)
    ~kind:Ethernet.Frame.Data ~flow:0 ~seq ~payload_len:500 ~payload_seed:seq ()

(* ---------- Context management (Hyp) ---------- *)

let test_hyp_assign_unique_contexts () =
  let fx = fixture () in
  let h1 = assign fx ~mac_idx:1 () in
  let h2 = assign fx ~guest:fx.guest2 ~mac_idx:2 () in
  check_bool "distinct contexts" true (Cdna.Hyp.ctx_id h1 <> Cdna.Hyp.ctx_id h2);
  check_bool "active on nic" true
    (Nic.Dp.is_active (Cdna.Cnic.dp fx.nic) ~ctx:(Cdna.Hyp.ctx_id h1));
  check_bool "guests recorded" true
    (Xen.Domain.id (Cdna.Hyp.guest_of h2) = Xen.Domain.id fx.guest2)

let test_hyp_context_exhaustion () =
  let fx = fixture () in
  for i = 0 to Cdna.Cnic.num_contexts - 1 do
    ignore (assign fx ~mac_idx:(10 + i) ())
  done;
  check_bool "exhausted" true
    (Cdna.Hyp.assign_context fx.cdna ~nic:fx.nic ~guest:fx.guest
       ~mac:(Ethernet.Mac_addr.make 99) ~isr_cost:(us 1)
    = Error `No_free_context)

let test_hyp_revoke_frees_context () =
  let fx = fixture () in
  let h = assign fx ~mac_idx:1 () in
  let ctx = Cdna.Hyp.ctx_id h in
  Cdna.Hyp.revoke fx.cdna h;
  check_bool "revoked" true (Cdna.Hyp.is_revoked h);
  check_bool "nic context freed" false
    (Nic.Dp.is_active (Cdna.Cnic.dp fx.nic) ~ctx);
  (* The slot is reusable. *)
  let h2 = assign fx ~guest:fx.guest2 ~mac_idx:2 () in
  check_int "same slot reassigned" ctx (Cdna.Hyp.ctx_id h2)

let test_faulted_slot_withheld_until_reset () =
  let fx = fixture () in
  let h = assign fx ~mac_idx:1 () in
  setup_rings fx h;
  let ctx = Cdna.Hyp.ctx_id h in
  let dp = Cdna.Cnic.dp fx.nic in
  let hw = Cdna.Hyp.driver_if h in
  (* Halt the context: doorbell past the last hypervisor-stamped
     descriptor, so the NIC's sequence check fires. *)
  (match
     await fx (fun k ->
         Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx [ own_desc fx h () ] k)
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "enqueue failed");
  hw.Nic.Driver_if.stage_tx_meta (meta_frame h ~seq:0);
  hw.Nic.Driver_if.stage_tx_meta (meta_frame h ~seq:1);
  hw.Nic.Driver_if.tx_doorbell 2;
  run fx 5;
  check_bool "context halted" true (Nic.Dp.is_faulted dp ~ctx);
  (* The halted slot keeps its poisoned seqno/ring state until it is
     deactivated: allocation must withhold it, whatever its active flag
     says. *)
  (match Cdna.Cnic.free_context fx.nic with
  | Some s -> check_bool "faulted slot withheld" true (s <> ctx)
  | None -> Alcotest.fail "expected free slots");
  let other = assign fx ~guest:fx.guest2 ~mac_idx:2 () in
  check_bool "new assignment avoids the halted slot" true
    (Cdna.Hyp.ctx_id other <> ctx);
  (* Deactivation fully resets the slot; only then may it be handed out. *)
  Cdna.Hyp.revoke fx.cdna h;
  check_bool "reset clears the fault latch" false (Nic.Dp.is_faulted dp ~ctx);
  (match Cdna.Cnic.free_context fx.nic with
  | Some s -> check_int "reset slot is free again" ctx s
  | None -> Alcotest.fail "expected free slots");
  let fresh = assign fx ~mac_idx:3 () in
  check_int "slot reused" ctx (Cdna.Hyp.ctx_id fresh);
  setup_rings fx fresh;
  let m = metrics_of fx in
  let tx_before = Sim.Metrics.sum m "nic.tx_frames" in
  let faults_before = List.length (Cdna.Hyp.faults fx.cdna) in
  let hw' = Cdna.Hyp.driver_if fresh in
  (match
     await fx (fun k ->
         Cdna.Hyp.enqueue fx.cdna fresh Cdna.Hyp.Tx [ own_desc fx fresh () ] k)
   with
  | Ok prod -> check_int "producer restarts with the slot" 1 prod
  | Error _ -> Alcotest.fail "enqueue on reused slot failed");
  hw'.Nic.Driver_if.stage_tx_meta (meta_frame fresh ~seq:0);
  hw'.Nic.Driver_if.tx_doorbell 1;
  run fx 5;
  check_int "clean transmit from the reused slot" (tx_before + 1)
    (Sim.Metrics.sum m "nic.tx_frames");
  check_int "no new faults" faults_before
    (List.length (Cdna.Hyp.faults fx.cdna))

(* ---------- DMA protection (Hyp.enqueue) ---------- *)

let test_hyp_enqueue_validates_ownership () =
  let fx = fixture () in
  let h = assign fx ~mac_idx:1 () in
  setup_rings fx h;
  (* Own page: accepted. *)
  (match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx [ own_desc fx h () ] k) with
  | Ok prod -> check_int "producer advanced" 1 prod
  | Error _ -> Alcotest.fail "own page rejected");
  (* Foreign page: rejected with the culprit pfn. *)
  let foreign = List.hd (Xen.Domain.pages fx.guest2) in
  let bad =
    {
      Memory.Dma_desc.addr = Memory.Addr.base_of_pfn foreign;
      len = 100;
      flags = 0;
      seqno = 0;
    }
  in
  match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx [ bad ] k) with
  | Error (`Not_owner pfn) -> check_int "culprit" foreign pfn
  | _ -> Alcotest.fail "foreign page accepted"

let test_hyp_enqueue_rejects_whole_batch () =
  let fx = fixture () in
  let h = assign fx ~mac_idx:1 () in
  setup_rings fx h;
  let foreign = List.hd (Xen.Domain.pages fx.guest2) in
  let bad =
    { Memory.Dma_desc.addr = Memory.Addr.base_of_pfn foreign; len = 10; flags = 0; seqno = 0 }
  in
  (match
     await fx (fun k ->
         Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx [ own_desc fx h (); bad ] k)
   with
  | Error (`Not_owner _) -> ()
  | _ -> Alcotest.fail "batch with foreign page accepted");
  (* Nothing was pinned: all-or-nothing. *)
  check_int "no pins" 0 (Cdna.Hyp.pinned_pages h)

let test_hyp_enqueue_pins_and_lazily_unpins () =
  let fx = fixture () in
  let h = assign fx ~mac_idx:1 () in
  setup_rings fx h;
  let hw = Cdna.Hyp.driver_if h in
  let d1 = own_desc fx h () in
  (match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx [ d1 ] k) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "enqueue failed");
  check_int "pinned" 1 (Cdna.Hyp.pinned_pages h);
  check_int "page refcount" 1
    (Memory.Phys_mem.refcount fx.mem (Memory.Addr.pfn_of d1.Memory.Dma_desc.addr));
  (* Let the NIC consume it. *)
  hw.Nic.Driver_if.stage_tx_meta (meta_frame h ~seq:0);
  hw.Nic.Driver_if.tx_doorbell 1;
  run fx 5;
  (* Still pinned: unpinning is lazy, on the next enqueue. *)
  check_int "still pinned" 1 (Cdna.Hyp.pinned_pages h);
  (match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx [ own_desc fx h () ] k) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "second enqueue failed");
  check_int "old pin dropped, new pin live" 1 (Cdna.Hyp.pinned_pages h);
  check_int "old page unpinned" 0
    (Memory.Phys_mem.refcount fx.mem (Memory.Addr.pfn_of d1.Memory.Dma_desc.addr))

let test_hyp_pinned_page_cannot_move () =
  let fx = fixture () in
  let h = assign fx ~mac_idx:1 () in
  setup_rings fx h;
  let d = own_desc fx h () in
  (match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Rx [ d ] k) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "enqueue failed");
  let pfn = Memory.Addr.pfn_of d.Memory.Dma_desc.addr in
  (* Freeing quarantines rather than releasing. *)
  Xen.Hypervisor.free_page fx.xen fx.guest pfn;
  check_bool "quarantined" true
    (match Memory.Phys_mem.state fx.mem pfn with
    | Memory.Page.Quarantined _ -> true
    | _ -> false)

let test_hyp_enqueue_ring_full () =
  let fx = fixture () in
  let h = assign fx ~mac_idx:1 () in
  setup_rings fx h;
  (* The ring holds 64; the NIC cannot drain without metadata+doorbell,
     and the status page never advances, so the 65th must be refused. *)
  let descs = List.init 65 (fun _ -> own_desc fx h ()) in
  let rec push n = function
    | [] -> n
    | d :: rest -> (
        match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx [ d ] k) with
        | Ok _ -> push (n + 1) rest
        | Error `Ring_full -> n
        | Error _ -> Alcotest.fail "unexpected error")
  in
  check_int "exactly 64 accepted" 64 (push 0 descs)

let test_hyp_enqueue_unregistered_ring () =
  let fx = fixture () in
  let h = assign fx ~mac_idx:1 () in
  match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx [ own_desc fx h () ] k) with
  | Error `Ring_unregistered -> ()
  | _ -> Alcotest.fail "expected Ring_unregistered"

let test_hyp_enqueue_after_revoke () =
  let fx = fixture () in
  let h = assign fx ~mac_idx:1 () in
  setup_rings fx h;
  Cdna.Hyp.revoke fx.cdna h;
  match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx [ own_desc fx h () ] k) with
  | Error `Revoked -> ()
  | _ -> Alcotest.fail "expected Revoked"

(* A stale handle must not reprogram the context's next occupant: each
   registration hypercall through a revoked handle fails, and the new
   occupant's rings and status writeback keep working. *)
let test_hyp_register_after_revoke () =
  let fx = fixture () in
  let h1 = assign fx ~mac_idx:1 () in
  Cdna.Hyp.revoke fx.cdna h1;
  let h2 = assign fx ~guest:fx.guest2 ~mac_idx:2 () in
  check_int "context reassigned" (Cdna.Hyp.ctx_id h1) (Cdna.Hyp.ctx_id h2);
  let d2 = Cdna.Driver.create ~hyp:fx.cdna ~handle:h2 ~costs:os_costs () in
  run fx 5;
  let page () =
    Memory.Addr.base_of_pfn (List.hd (Xen.Hypervisor.alloc_pages fx.xen fx.guest 1))
  in
  let stale_tx = page () and stale_rx = page () and stale_status = page () in
  let revoked what r =
    match r with
    | Error `Revoked -> ()
    | _ -> Alcotest.failf "%s through a revoked handle: expected Revoked" what
  in
  revoked "tx ring"
    (await fx (fun k ->
         Cdna.Hyp.register_ring fx.cdna h1 Cdna.Hyp.Tx ~base:stale_tx ~slots:64 k));
  revoked "rx ring"
    (await fx (fun k ->
         Cdna.Hyp.register_ring fx.cdna h1 Cdna.Hyp.Rx ~base:stale_rx ~slots:64 k));
  revoked "status"
    (await fx (fun k -> Cdna.Hyp.register_status fx.cdna h1 ~addr:stale_status k));
  let post_kernel ~cost fn = Xen.Hypervisor.kernel_work fx.xen fx.guest2 ~cost fn in
  let stack =
    Guestos.Net_stack.create ~post_kernel ~costs:os_costs
      ~netdev:(Guestos.Nic_driver.netdev (Cdna.Driver.core d2))
  in
  let wire = ref 0 and got = ref 0 in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun _ -> incr wire);
  Guestos.Net_stack.set_rx_handler stack (fun fs -> got := !got + List.length fs);
  let frame ~src ~dst i =
    Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make src)
      ~dst:(Ethernet.Mac_addr.make dst) ~kind:Ethernet.Frame.Data ~flow:0 ~seq:i
      ~payload_len:800 ~payload_seed:i ()
  in
  Guestos.Net_stack.send stack (List.init 10 (frame ~src:2 ~dst:99));
  for i = 0 to 4 do
    Ethernet.Link.send fx.link ~from:Ethernet.Link.B (frame ~src:99 ~dst:2 i)
      ~on_wire_free:ignore
  done;
  run fx 20;
  check_int "occupant's transmit ring intact" 10 !wire;
  check_int "occupant's receive ring intact" 5 !got;
  check_bool "no faults" true (Cdna.Hyp.faults fx.cdna = []);
  check_bool "no writeback to the stale status page" true
    (Bytes.for_all
       (fun c -> c = '\000')
       (Memory.Phys_mem.read fx.mem ~addr:stale_status ~len:8))

let test_hyp_ring_registration_validates () =
  let fx = fixture () in
  let h = assign fx ~mac_idx:1 () in
  let foreign = List.hd (Xen.Domain.pages fx.guest2) in
  match
    await fx (fun k ->
        Cdna.Hyp.register_ring fx.cdna h Cdna.Hyp.Tx
          ~base:(Memory.Addr.base_of_pfn foreign) ~slots:64 k)
  with
  | Error (`Not_owner _) -> ()
  | _ -> Alcotest.fail "foreign ring memory accepted"

let test_hyp_revoke_unpins_everything () =
  let fx = fixture () in
  let h = assign fx ~mac_idx:1 () in
  setup_rings fx h;
  let descs = List.init 5 (fun _ -> own_desc fx h ()) in
  (match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Rx descs k) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "enqueue failed");
  check_int "pinned" 5 (Cdna.Hyp.pinned_pages h);
  let pfns =
    List.map (fun d -> Memory.Addr.pfn_of d.Memory.Dma_desc.addr) descs
  in
  Cdna.Hyp.revoke fx.cdna h;
  check_int "all unpinned" 0 (Cdna.Hyp.pinned_pages h);
  List.iter
    (fun pfn ->
      check_int "refcount zero" 0
        (Memory.Phys_mem.refcount fx.mem pfn))
    pfns

(* Whether the NIC context [h] is on may DMA-read [pfn]: a 4-byte probe
   through the NIC's own DMA engine, which consults the IOMMU. *)
let dma_allowed fx h pfn =
  let dp = Cdna.Cnic.dp fx.nic in
  let r = ref None in
  Bus.Dma_engine.read_into (Nic.Dp.dma dp)
    ~context:(Nic.Dp.dma_context dp ~ctx:(Cdna.Hyp.ctx_id h))
    ~addr:(Memory.Addr.base_of_pfn pfn) ~len:4 ~dst:(Bytes.create 4) ~pos:0
    (fun res -> r := Some res);
  run fx 1;
  match !r with
  | Some (Ok ()) -> true
  | Some (Error (`Iommu_denied _)) -> false
  | Some (Error _) -> Alcotest.fail "DMA probe faulted"
  | None -> Alcotest.fail "DMA probe never completed"

(* [n] pages of the guest with consecutive pfns. *)
let consecutive_pages fx h n =
  match Xen.Hypervisor.alloc_pages fx.xen (Cdna.Hyp.guest_of h) n with
  | first :: _ as pfns when pfns = List.init n (fun i -> first + i) -> first
  | _ -> Alcotest.fail "pages not consecutive"

(* The pin ledger against a model of the outstanding descriptors: each
   enqueue holds every page its descriptors span (a reference in Full
   mode, a grant in Iommu mode) until a later enqueue sees the consumer
   index pass it, then drops each exactly once; [cdna.ctx.pinned_pages]
   equals the model's page sum throughout, and [revoke] returns every
   page to its baseline. *)
let test_pin_ledger protection () =
  let fx = fixture ~protection () in
  let m = metrics_of fx in
  let h = assign fx ~mac_idx:1 () in
  let status = setup_rings_status fx h in
  let held pfn =
    match protection with
    | Cdna.Cdna_costs.Iommu -> if dma_allowed fx h pfn then 1 else 0
    | _ -> Memory.Phys_mem.refcount fx.mem pfn
  in
  let span (d : Memory.Dma_desc.t) =
    Memory.Addr.pages_spanned ~addr:d.addr ~len:d.len
  in
  let seen = ref [] and outstanding = ref [] and prod = ref 0 in
  let check_model what =
    let live = List.concat_map snd !outstanding in
    List.iter
      (fun pfn ->
        check_int
          (Printf.sprintf "%s: pfn %d held" what pfn)
          (if List.mem pfn live then 1 else 0)
          (held pfn))
      !seen;
    check_int (what ^ ": pinned_pages") (List.length live)
      (Cdna.Hyp.pinned_pages h);
    check_int (what ^ ": cdna.ctx.pinned_pages") (List.length live)
      (Sim.Metrics.sum m "cdna.ctx.pinned_pages")
  in
  let enqueue ~cons what descs =
    Memory.Phys_mem.write_u32 fx.mem ~addr:status cons;
    (match
       await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx descs k)
     with
    | Ok p -> check_int (what ^ ": producer") (!prod + List.length descs) p
    | Error _ -> Alcotest.failf "%s: enqueue rejected" what);
    outstanding :=
      List.filter (fun (idx, _) -> idx >= cons) !outstanding
      @ List.mapi (fun i d -> (!prod + i, span d)) descs;
    prod := !prod + List.length descs;
    seen := !seen @ List.concat_map span descs;
    check_model what
  in
  let first = consecutive_pages fx h 3 in
  let three =
    {
      (own_desc fx h ()) with
      Memory.Dma_desc.addr = Memory.Addr.base_of_pfn first + 100;
      len = 2 * Memory.Addr.page_size;
    }
  in
  check_int "spans three pages" 3 (List.length (span three));
  let empty = { (own_desc fx h ()) with Memory.Dma_desc.len = 0 } in
  enqueue ~cons:0 "three pages and an empty one" [ three; empty ];
  enqueue ~cons:0 "nothing consumed" [ own_desc fx h () ];
  enqueue ~cons:1 "three-page descriptor consumed" [ own_desc fx h () ];
  enqueue ~cons:1 "no second release" [ own_desc fx h (); own_desc fx h () ];
  enqueue ~cons:3 "empty descriptor and one more consumed" [ own_desc fx h () ];
  Cdna.Hyp.revoke fx.cdna h;
  outstanding := [];
  check_model "after revoke"

(* A batch naming foreign pages, or a negative length, pins nothing:
   the rejection names the first foreign page in descriptor order, and
   a negative length raises as [Addr.pages_spanned] does. *)
let test_pin_ledger_rejects protection () =
  let fx = fixture ~protection () in
  let h = assign fx ~mac_idx:1 () in
  setup_rings fx h;
  let foreign = Xen.Domain.pages fx.guest2 in
  let at pfn = Memory.Addr.base_of_pfn pfn in
  let a = List.nth foreign 0 and b = List.nth foreign 1 in
  let own = own_desc fx h () in
  let batch =
    [
      own;
      { own with Memory.Dma_desc.addr = at b; len = 10 };
      { own with Memory.Dma_desc.addr = at a; len = 10 };
    ]
  in
  (match
     await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx batch k)
   with
  | Error (`Not_owner pfn) -> check_int "first foreign page" b pfn
  | _ -> Alcotest.fail "mixed batch accepted");
  check_int "nothing pinned" 0 (Cdna.Hyp.pinned_pages h);
  let own_pfn = Memory.Addr.pfn_of own.Memory.Dma_desc.addr in
  check_int "no reference taken" 0 (Memory.Phys_mem.refcount fx.mem own_pfn);
  check_bool "no grant made" false
    (protection = Cdna.Cdna_costs.Iommu && dma_allowed fx h own_pfn);
  (match
     await fx (fun k ->
         Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx
           [ own; { own with Memory.Dma_desc.len = -1 } ]
           k)
   with
  | Error `Bad_length -> ()
  | _ -> Alcotest.fail "negative length not reported as Bad_length");
  check_int "nothing pinned after the bad length" 0 (Cdna.Hyp.pinned_pages h);
  check_int "no reference after the bad length" 0
    (Memory.Phys_mem.refcount fx.mem own_pfn)

(* A negative descriptor length fails the caller's hypercall and nothing
   else, in every protection mode: nothing of the batch is written (the
   next enqueue still gets producer index 1), the engine keeps running,
   and another guest's transmit traffic all goes out. *)
let test_bad_length_fails_one_call protection () =
  let fx = fixture ~protection () in
  let h1 = assign fx ~mac_idx:1 () in
  let h2 = assign fx ~guest:fx.guest2 ~mac_idx:2 () in
  setup_rings fx h1;
  let d2 = Cdna.Driver.create ~hyp:fx.cdna ~handle:h2 ~costs:os_costs () in
  run fx 5;
  let stack2 =
    Guestos.Net_stack.create
      ~post_kernel:(fun ~cost fn ->
        Xen.Hypervisor.kernel_work fx.xen fx.guest2 ~cost fn)
      ~costs:os_costs ~netdev:(Guestos.Nic_driver.netdev (Cdna.Driver.core d2))
  in
  Guestos.Net_stack.send stack2
    (List.init 100 (fun i ->
         Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 2)
           ~dst:(Ethernet.Mac_addr.make 99) ~kind:Ethernet.Frame.Data ~flow:2
           ~seq:i ~payload_len:1000 ~payload_seed:i ()));
  let own = own_desc fx h1 () in
  let bad = ref None in
  Sim.Engine.schedule fx.engine ~delay:(Sim.Time.us 200) (fun () ->
      Cdna.Hyp.enqueue fx.cdna h1 Cdna.Hyp.Tx
        [ own; { own with Memory.Dma_desc.len = -1 } ]
        (fun r -> bad := Some r));
  run fx 40;
  (match !bad with
  | Some (Error `Bad_length) -> ()
  | Some _ -> Alcotest.fail "negative length not reported as Bad_length"
  | None -> Alcotest.fail "hypercall never completed");
  check_int "nothing pinned" 0 (Cdna.Hyp.pinned_pages h1);
  (match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h1 Cdna.Hyp.Tx [ own ] k) with
  | Ok prod -> check_int "bad batch wrote nothing" 1 prod
  | Error _ -> Alcotest.fail "valid enqueue after the bad one failed");
  check_int "other guest's traffic flowed" 100
    (Guestos.Nic_driver.tx_count (Cdna.Driver.core d2))

(* A second guest with a driver and 100 frames to send; the returned
   function reads how many went out. *)
let other_guest_sending fx =
  let h2 = assign fx ~guest:fx.guest2 ~mac_idx:2 () in
  let d2 = Cdna.Driver.create ~hyp:fx.cdna ~handle:h2 ~costs:os_costs () in
  run fx 5;
  let stack2 =
    Guestos.Net_stack.create
      ~post_kernel:(fun ~cost fn ->
        Xen.Hypervisor.kernel_work fx.xen fx.guest2 ~cost fn)
      ~costs:os_costs ~netdev:(Guestos.Nic_driver.netdev (Cdna.Driver.core d2))
  in
  Guestos.Net_stack.send stack2
    (List.init 100 (fun i ->
         Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 2)
           ~dst:(Ethernet.Mac_addr.make 99) ~kind:Ethernet.Frame.Data ~flow:2
           ~seq:i ~payload_len:1000 ~payload_seed:i ()));
  fun () -> Guestos.Nic_driver.tx_count (Cdna.Driver.core d2)

(* A ring size [Ring.create] would reject fails the caller's
   registration with [Bad_ring_size], inside the hypercall: the engine
   keeps running, nothing is programmed or pinned, and another guest's
   traffic all goes out. *)
let test_bad_ring_size_fails_one_call protection () =
  let fx = fixture ~protection () in
  let h1 = assign fx ~mac_idx:1 () in
  let sent2 = other_guest_sending fx in
  let ring_page = List.hd (Xen.Hypervisor.alloc_pages fx.xen fx.guest 1) in
  let results = ref [] in
  List.iteri
    (fun i slots ->
      Sim.Engine.schedule fx.engine ~delay:(Sim.Time.us (100 * (i + 1)))
        (fun () ->
          Cdna.Hyp.register_ring fx.cdna h1 Cdna.Hyp.Tx
            ~base:(Memory.Addr.base_of_pfn ring_page) ~slots (fun r ->
              results := r :: !results)))
    [ 3; 0; 65536 ];
  run fx 40;
  check_int "three calls answered" 3 (List.length !results);
  check_bool "each failed with Bad_ring_size" true
    (List.for_all (fun r -> r = Error `Bad_ring_size) !results);
  (match
     await fx (fun k ->
         Cdna.Hyp.enqueue fx.cdna h1 Cdna.Hyp.Tx [ own_desc fx h1 () ] k)
   with
  | Error `Ring_unregistered -> ()
  | _ -> Alcotest.fail "a rejected ring was programmed");
  check_int "nothing pinned" 0 (Cdna.Hyp.pinned_pages h1);
  check_int "other guest's traffic flowed" 100 (sent2 ())

(* A producer index that goes backwards, written by the guest through
   its own mailbox mapping, faults that context alone: the engine keeps
   running and another guest's traffic all goes out. *)
let test_backwards_doorbell_through_mapping protection () =
  let fx = fixture ~protection () in
  let h1 = assign fx ~mac_idx:1 () in
  setup_rings fx h1;
  let faults = ref [] in
  Cdna.Cnic.set_fault_handler fx.nic (fun ~ctx dir f ->
      faults := (ctx, dir, f) :: !faults);
  let sent2 = other_guest_sending fx in
  let hw1 = Cdna.Hyp.driver_if h1 in
  (* Far enough apart for the firmware to dispatch each write. *)
  Sim.Engine.schedule fx.engine ~delay:(Sim.Time.us 100) (fun () ->
      hw1.Nic.Driver_if.rx_doorbell 5);
  Sim.Engine.schedule fx.engine ~delay:(Sim.Time.us 200) (fun () ->
      hw1.Nic.Driver_if.rx_doorbell 3);
  run fx 40;
  check_bool "only the guest's context faulted" true
    (!faults
    = [
        ( Cdna.Hyp.ctx_id h1,
          Nic.Dp.Rx,
          Nic.Dp.Producer_backwards { published = 5; prod = 3 } );
      ]);
  check_int "other guest's traffic flowed" 100 (sent2 ())

(* ---------- Protection fault reporting ---------- *)

let test_fault_attributed_to_guest () =
  let fx = fixture () in
  let h = assign fx ~mac_idx:1 () in
  setup_rings fx h;
  let hw = Cdna.Hyp.driver_if h in
  (match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx [ own_desc fx h () ] k) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "enqueue failed");
  hw.Nic.Driver_if.stage_tx_meta (meta_frame h ~seq:0);
  hw.Nic.Driver_if.stage_tx_meta (meta_frame h ~seq:1);
  (* Doorbell past the last hypervisor-stamped descriptor. *)
  hw.Nic.Driver_if.tx_doorbell 2;
  run fx 5;
  check_bool "fault recorded for the right guest" true
    (List.exists
       (fun (dom, ctx) ->
         dom = Xen.Domain.id fx.guest && ctx = Cdna.Hyp.ctx_id h)
       (Cdna.Hyp.faults fx.cdna))

(* ---------- Disabled and IOMMU modes ---------- *)

let test_disabled_mode_skips_validation () =
  let fx = fixture ~protection:Cdna.Cdna_costs.Disabled () in
  let h = assign fx ~mac_idx:1 () in
  setup_rings fx h;
  let foreign = List.hd (Xen.Domain.pages fx.guest2) in
  let bad =
    { Memory.Dma_desc.addr = Memory.Addr.base_of_pfn foreign; len = 100; flags = 0; seqno = 0 }
  in
  (match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx [ bad ] k) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "disabled mode rejected a descriptor");
  check_int "nothing pinned" 0 (Cdna.Hyp.pinned_pages h)

let test_iommu_mode_blocks_foreign_dma () =
  let fx = fixture ~protection:Cdna.Cdna_costs.Iommu () in
  let h = assign fx ~mac_idx:1 () in
  setup_rings fx h;
  let hw = Cdna.Hyp.driver_if h in
  (* Enqueue a legitimate descriptor, then tamper with the ring memory to
     point it at a foreign page (the guest owns its ring pages only under
     Full protection, so Iommu mode leaves this window — which the IOMMU
     itself must close). *)
  (match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx [ own_desc fx h () ] k) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "enqueue failed");
  check_int "granted to iommu while in flight" 1 (Cdna.Hyp.pinned_pages h);
  (* A transmit from the legitimate page goes through. *)
  hw.Nic.Driver_if.stage_tx_meta (meta_frame h ~seq:0);
  hw.Nic.Driver_if.tx_doorbell 1;
  run fx 5;
  check_int "frame sent" 1 (Sim.Metrics.sum (metrics_of fx) "nic.tx_frames")

(* Forged-descriptor end-to-end: the guest posts an Rx descriptor naming a
   page owned by another domain, then traffic arrives for it. The whole
   datapath runs with materialized payloads so the DMA writes real bytes.
   Returns the enqueue result and the victim page contents afterwards. *)
let forged_rx_roundtrip ~protection =
  let fx = fixture ~protection ~materialize:true () in
  let h = assign fx ~mac_idx:1 () in
  setup_rings fx h;
  let victim_pfn = List.hd (Xen.Domain.pages fx.guest2) in
  let victim_addr = Memory.Addr.base_of_pfn victim_pfn in
  Memory.Phys_mem.write fx.mem ~addr:victim_addr (Bytes.make 256 'V');
  let forged =
    { Memory.Dma_desc.addr = victim_addr; len = 256; flags = 0; seqno = 0 }
  in
  let result =
    await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Rx [ forged ] k)
  in
  (* If the hypervisor let the descriptor through, hand it to the NIC the
     way a driver would and deliver a frame addressed to this guest. *)
  (match result with
  | Ok prod -> (Cdna.Hyp.driver_if h).Nic.Driver_if.rx_doorbell prod
  | Error _ -> ());
  Ethernet.Link.send fx.link ~from:Ethernet.Link.B
    (Ethernet.Frame.make
       ~src:(Ethernet.Mac_addr.make 99)
       ~dst:(Ethernet.Mac_addr.make 1)
       ~kind:Ethernet.Frame.Data ~flow:0 ~seq:0 ~payload_len:256
       ~payload_seed:7 ())
    ~on_wire_free:ignore;
  run fx 10;
  let victim_bytes = Memory.Phys_mem.read fx.mem ~addr:victim_addr ~len:256 in
  let rx_frames = Sim.Metrics.sum (metrics_of fx) "nic.rx_frames" in
  (result, victim_bytes, victim_pfn, rx_frames)

let test_forged_descriptor_blocked_under_full () =
  let result, victim_bytes, victim_pfn, rx_frames =
    forged_rx_roundtrip ~protection:Cdna.Cdna_costs.Full
  in
  (match result with
  | Error (`Not_owner pfn) -> check_int "culprit pfn" victim_pfn pfn
  | Ok _ -> Alcotest.fail "forged descriptor accepted under Full protection"
  | Error _ -> Alcotest.fail "rejected for the wrong reason");
  check_int "no frame landed" 0 rx_frames;
  check_bool "victim page untouched" true
    (Bytes.for_all (fun c -> c = 'V') victim_bytes)

let test_forged_descriptor_corrupts_when_disabled () =
  let result, victim_bytes, victim_pfn, rx_frames =
    forged_rx_roundtrip ~protection:Cdna.Cdna_costs.Disabled
  in
  ignore victim_pfn;
  (match result with
  | Ok prod -> check_int "producer advanced" 1 prod
  | Error _ -> Alcotest.fail "disabled mode rejected the forged descriptor");
  (* The frame really flowed through the NIC into the forged buffer... *)
  check_int "frame delivered" 1 rx_frames;
  (* ...and overwrote another guest's memory: exactly the corruption the
     CDNA validation hypercall exists to prevent (paper section 3.3). *)
  check_bool "victim page corrupted" true
    (Bytes.exists (fun c -> c <> 'V') victim_bytes)

(* ---------- CDNA guest driver end-to-end ---------- *)

let driver_fixture ?(protection = Cdna.Cdna_costs.Full) ?(materialize = false)
    () =
  let fx = fixture ~protection ~materialize () in
  let h = assign fx ~mac_idx:1 () in
  let driver =
    Cdna.Driver.create ~hyp:fx.cdna ~handle:h ~costs:os_costs
      ~materialize ()
  in
  let post_kernel ~cost fn = Xen.Hypervisor.kernel_work fx.xen fx.guest ~cost fn in
  let stack =
    Guestos.Net_stack.create ~post_kernel ~costs:os_costs
      ~netdev:(Guestos.Nic_driver.netdev (Cdna.Driver.core driver))
  in
  run fx 5;
  (fx, h, driver, stack)

let test_driver_comes_up () =
  let _fx, _h, driver, _ = driver_fixture () in
  check_bool "ready after async registration" true (Guestos.Nic_driver.ready (Cdna.Driver.core driver))

let test_driver_transmit_roundtrip () =
  let fx, _h, driver, stack = driver_fixture () in
  let wire = ref [] in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun f -> wire := f :: !wire);
  let frames =
    List.init 25 (fun i ->
        Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
          ~dst:(Ethernet.Mac_addr.make 99) ~kind:Ethernet.Frame.Data ~flow:0
          ~seq:i ~payload_len:1000 ~payload_seed:i ())
  in
  Guestos.Net_stack.send stack frames;
  run fx 20;
  check_int "all transmitted" 25 (List.length !wire);
  check_int "driver counter" 25 (Guestos.Nic_driver.tx_count (Cdna.Driver.core driver));
  check_int "no enqueue errors" 0 (Cdna.Driver.enqueue_errors driver);
  check_bool "no faults" true (Cdna.Hyp.faults fx.cdna = [])

let test_driver_receive_roundtrip () =
  let fx, _h, driver, stack = driver_fixture () in
  let got = ref [] in
  Guestos.Net_stack.set_rx_handler stack (fun fs -> got := fs @ !got);
  for i = 0 to 19 do
    Ethernet.Link.send fx.link ~from:Ethernet.Link.B
      (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 99)
         ~dst:(Ethernet.Mac_addr.make 1) ~kind:Ethernet.Frame.Data ~flow:0
         ~seq:i ~payload_len:1200 ~payload_seed:i ())
      ~on_wire_free:ignore
  done;
  run fx 20;
  check_int "all received" 20 (List.length !got);
  check_int "driver counter" 20 (Guestos.Nic_driver.rx_count (Cdna.Driver.core driver))

let test_driver_materialized_integrity () =
  let fx, _h, _driver, stack = driver_fixture ~materialize:true () in
  let wire = ref [] in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun f -> wire := f :: !wire);
  Guestos.Net_stack.send stack
    [
      Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
        ~dst:(Ethernet.Mac_addr.make 99) ~kind:Ethernet.Frame.Data ~flow:0
        ~seq:0 ~payload_len:1234 ~payload_seed:5 ();
    ];
  run fx 20;
  match !wire with
  | [ f ] ->
      check_bool "payload valid through hypercall enqueue + DMA" true
        (Ethernet.Frame.data_valid f)
  | _ -> Alcotest.fail "expected one frame"

let test_driver_virq_flow () =
  (* The full interrupt path: NIC completion -> bit vector DMA -> physical
     irq -> hypervisor decode -> event channel -> driver poll. *)
  let fx, h, _driver, stack = driver_fixture () in
  Guestos.Net_stack.send stack
    [
      Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
        ~dst:(Ethernet.Mac_addr.make 99) ~kind:Ethernet.Frame.Data ~flow:0
        ~seq:0 ~payload_len:100 ~payload_seed:0 ();
    ];
  run fx 20;
  let m = metrics_of fx in
  check_bool "virq delivered" true
    (Sim.Metrics.sum m
       (Printf.sprintf "cdna.ctx.virqs{ctx=%d,nic=cnic0}" (Cdna.Hyp.ctx_id h))
    > 0);
  check_bool "interrupt raised after vector landed" true
    (Sim.Metrics.sum m "cnic.interrupts_raised" > 0);
  check_bool "guest virq counted" true (Xen.Domain.virq_count fx.guest > 0)

let test_driver_two_guests_isolated_traffic () =
  let fx = fixture () in
  let h1 = assign fx ~mac_idx:1 () in
  let h2 = assign fx ~guest:fx.guest2 ~mac_idx:2 () in
  let d1 = Cdna.Driver.create ~hyp:fx.cdna ~handle:h1 ~costs:os_costs () in
  let d2 = Cdna.Driver.create ~hyp:fx.cdna ~handle:h2 ~costs:os_costs () in
  run fx 5;
  (* Frames addressed to each guest's MAC reach only that context. *)
  for i = 0 to 3 do
    Ethernet.Link.send fx.link ~from:Ethernet.Link.B
      (Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 99)
         ~dst:(Ethernet.Mac_addr.make ((i mod 2) + 1))
         ~kind:Ethernet.Frame.Data ~flow:i ~seq:0 ~payload_len:100
         ~payload_seed:0 ())
      ~on_wire_free:ignore
  done;
  run fx 10;
  check_int "guest1 got its two" 2 (Guestos.Nic_driver.rx_count (Cdna.Driver.core d1));
  check_int "guest2 got its two" 2 (Guestos.Nic_driver.rx_count (Cdna.Driver.core d2))

let test_revocation_under_load () =
  (* Revoke one guest's context mid-traffic: its pending work is shut
     down, its pins drop, and the other guest's traffic continues
     unharmed. *)
  let fx = fixture () in
  let h1 = assign fx ~mac_idx:1 () in
  let h2 = assign fx ~guest:fx.guest2 ~mac_idx:2 () in
  let d1 = Cdna.Driver.create ~hyp:fx.cdna ~handle:h1 ~costs:os_costs () in
  let d2 = Cdna.Driver.create ~hyp:fx.cdna ~handle:h2 ~costs:os_costs () in
  run fx 5;
  let post_kernel dom ~cost fn = Xen.Hypervisor.kernel_work fx.xen dom ~cost fn in
  let stack1 =
    Guestos.Net_stack.create ~post_kernel:(post_kernel fx.guest)
      ~costs:os_costs ~netdev:(Guestos.Nic_driver.netdev (Cdna.Driver.core d1))
  in
  let stack2 =
    Guestos.Net_stack.create ~post_kernel:(post_kernel fx.guest2)
      ~costs:os_costs ~netdev:(Guestos.Nic_driver.netdev (Cdna.Driver.core d2))
  in
  let send stack src n =
    Guestos.Net_stack.send stack
      (List.init n (fun i ->
           Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make src)
             ~dst:(Ethernet.Mac_addr.make 99) ~kind:Ethernet.Frame.Data
             ~flow:src ~seq:i ~payload_len:1000 ~payload_seed:i ()))
  in
  send stack1 1 200;
  send stack2 2 200;
  (* Revoke guest 1 while its packets are in flight. *)
  Sim.Engine.schedule fx.engine ~delay:(Sim.Time.us 200) (fun () ->
      Cdna.Hyp.revoke fx.cdna h1);
  run fx 60;
  check_bool "guest1 revoked" true (Cdna.Hyp.is_revoked h1);
  check_int "guest1 pins dropped" 0 (Cdna.Hyp.pinned_pages h1);
  check_bool "guest1 stopped early" true (Guestos.Nic_driver.tx_count (Cdna.Driver.core d1) < 200);
  check_int "guest2 unaffected" 200 (Guestos.Nic_driver.tx_count (Cdna.Driver.core d2));
  check_bool "guest2 still owns its context" true
    (Nic.Dp.is_active (Cdna.Cnic.dp fx.nic) ~ctx:(Cdna.Hyp.ctx_id h2))

let test_compact_layout_cdna_end_to_end () =
  (* A CDNA NIC negotiating the 12-byte compact descriptor format: the
     hypervisor serializes through the published layout (paper 3.4). *)
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let mem = Memory.Phys_mem.create ~total_pages:8192 () in
  let xen = Xen.Hypervisor.create engine ~cpu ~mem ~costs:xen_costs () in
  let guest =
    Xen.Hypervisor.create_domain xen ~name:"g" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:2048
  in
  let cdna = Cdna.Hyp.create xen ~costs:cdna_costs ~paging:false () in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let irq = Bus.Irq.create () in
  let intr_page = List.hd (Xen.Hypervisor.alloc_hyp_pages xen 1) in
  let config =
    {
      Cdna.Cnic.default_config with
      Nic.Nic_config.desc_layout = Memory.Desc_layout.compact;
    }
  in
  let nic =
    Cdna.Cnic.create engine ~mem ~dma ~config ~irq ~dma_context_base:0
      ~intr_base:(Memory.Addr.base_of_pfn intr_page)
      ()
  in
  Cdna.Hyp.add_nic cdna nic;
  let link = Ethernet.Link.create engine () in
  Nic.Dp.attach_link (Cdna.Cnic.dp nic) link ~side:Ethernet.Link.A;
  let wire = ref 0 in
  Ethernet.Link.attach link Ethernet.Link.B (fun _ -> incr wire);
  let h =
    match
      Cdna.Hyp.assign_context cdna ~nic ~guest ~mac:(Ethernet.Mac_addr.make 1)
        ~isr_cost:(us 1)
    with
    | Ok h -> h
    | Error _ -> Alcotest.fail "assign failed"
  in
  let driver = Cdna.Driver.create ~hyp:cdna ~handle:h ~costs:os_costs () in
  Sim.Engine.run engine ~until:(Sim.Time.ms 5);
  Alcotest.(check bool) "driver up" true (Guestos.Nic_driver.ready (Cdna.Driver.core driver));
  let post_kernel ~cost fn = Xen.Hypervisor.kernel_work xen guest ~cost fn in
  let stack =
    Guestos.Net_stack.create ~post_kernel ~costs:os_costs
      ~netdev:(Guestos.Nic_driver.netdev (Cdna.Driver.core driver))
  in
  Guestos.Net_stack.send stack
    (List.init 8 (fun i ->
         Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
           ~dst:(Ethernet.Mac_addr.make 99) ~kind:Ethernet.Frame.Data ~flow:0
           ~seq:i ~payload_len:1000 ~payload_seed:i ()));
  Sim.Engine.run engine ~until:(Sim.Time.ms 15);
  check_int "all frames through the compact layout" 8 !wire;
  check_bool "no faults" true (Cdna.Hyp.faults cdna = [])

let test_enqueue_call_accounting () =
  let fx = fixture () in
  let h = assign fx ~mac_idx:1 () in
  setup_rings fx h;
  let m = metrics_of fx in
  check_int "no calls yet" 0 (Sim.Metrics.sum m "cdna.enqueue_calls");
  (match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx [ own_desc fx h () ] k) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "enqueue failed");
  (match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Rx [ own_desc fx h () ] k) with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "enqueue failed");
  check_int "two hypercalls" 2 (Sim.Metrics.sum m "cdna.enqueue_calls")

let test_context_migration () =
  (* Move a live guest from one CDNA NIC to another: revoke + reassign
     with the same MAC, driver rebinds, traffic resumes on the new link. *)
  let fx = fixture () in
  (* A second NIC on its own link. *)
  let irq2 = Bus.Irq.create () in
  let intr_page2 = List.hd (Xen.Hypervisor.alloc_hyp_pages fx.xen 1) in
  let nic2 =
    Cdna.Cnic.create fx.engine ~mem:fx.mem
      ~dma:(Nic.Dp.dma (Cdna.Cnic.dp fx.nic)) ~irq:irq2 ~dma_context_base:64
      ~intr_base:(Memory.Addr.base_of_pfn intr_page2)
      ()
  in
  Cdna.Hyp.add_nic fx.cdna nic2;
  let link2 = Ethernet.Link.create fx.engine () in
  Nic.Dp.attach_link (Cdna.Cnic.dp nic2) link2 ~side:Ethernet.Link.A;
  let wire1 = ref 0 and wire2 = ref 0 in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun _ -> incr wire1);
  Ethernet.Link.attach link2 Ethernet.Link.B (fun _ -> incr wire2);
  let h = assign fx ~mac_idx:1 () in
  let driver = Cdna.Driver.create ~hyp:fx.cdna ~handle:h ~costs:os_costs () in
  run fx 5;
  let post_kernel ~cost fn = Xen.Hypervisor.kernel_work fx.xen fx.guest ~cost fn in
  let stack =
    Guestos.Net_stack.create ~post_kernel ~costs:os_costs
      ~netdev:(Guestos.Nic_driver.netdev (Cdna.Driver.core driver))
  in
  let send n =
    Guestos.Net_stack.send stack
      (List.init n (fun i ->
           Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
             ~dst:(Ethernet.Mac_addr.make 99) ~kind:Ethernet.Frame.Data
             ~flow:0 ~seq:i ~payload_len:800 ~payload_seed:i ()))
  in
  send 20;
  run fx 10;
  check_int "before: traffic on link 1" 20 !wire1;
  check_int "before: nothing on link 2" 0 !wire2;
  (* Migrate. *)
  let h2 =
    match Cdna.Hyp.migrate fx.cdna h ~to_nic:nic2 with
    | Ok h2 -> h2
    | Error `No_free_context -> Alcotest.fail "migration failed"
  in
  Cdna.Driver.rebind driver h2;
  run fx 5;
  check_bool "driver back up" true (Guestos.Nic_driver.ready (Cdna.Driver.core driver));
  check_bool "old handle revoked" true (Cdna.Hyp.is_revoked h);
  check_bool "same mac preserved" true
    (match Nic.Dp.mac_of (Cdna.Cnic.dp nic2) ~ctx:(Cdna.Hyp.ctx_id h2) with
    | Some mac -> Ethernet.Mac_addr.equal mac (Ethernet.Mac_addr.make 1)
    | None -> false);
  send 20;
  run fx 10;
  check_int "after: traffic on link 2" 20 !wire2;
  check_int "after: link 1 silent" 20 !wire1;
  check_bool "no faults" true (Cdna.Hyp.faults fx.cdna = [])

(* ---------- Fault injection and recovery ---------- *)

let test_driver_auto_recovery_from_injected_fault () =
  (* A one-shot injected bus fault on the guest's context: the hypervisor
     revokes, the driver's auto-recovery reassigns and rebinds, and
     traffic resumes on the fresh context. *)
  let fx, h, driver, stack = driver_fixture () in
  Cdna.Driver.enable_auto_recovery driver;
  let ctx = Cdna.Hyp.ctx_id h in
  let fi = Sim.Fault_inject.create ~seed:11 in
  Sim.Fault_inject.arm fi ~site:"dma"
    (Sim.Fault_inject.plan ~ctx:(ctx, ctx) Sim.Fault_inject.One_shot);
  Bus.Dma_engine.set_fault_injector (Nic.Dp.dma (Cdna.Cnic.dp fx.nic))
    (Some
       (fun ~context ~addr ~len:_ ->
         Sim.Fault_inject.fire fi ~site:"dma" ~ctx:context ~addr ()));
  let wire = ref 0 in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun _ -> incr wire);
  let send n start =
    Guestos.Net_stack.send stack
      (List.init n (fun i ->
           Ethernet.Frame.make ~src:(Ethernet.Mac_addr.make 1)
             ~dst:(Ethernet.Mac_addr.make 99) ~kind:Ethernet.Frame.Data
             ~flow:0 ~seq:(start + i) ~payload_len:800
             ~payload_seed:(start + i) ()))
  in
  send 10 0;
  run fx 30;
  check_int "injection recorded" 1
    (Bus.Dma_engine.injected_faults (Nic.Dp.dma (Cdna.Cnic.dp fx.nic)));
  check_bool "fault attributed to the guest" true
    (List.exists
       (fun (dom, _) -> dom = Xen.Domain.id fx.guest)
       (Cdna.Hyp.faults fx.cdna));
  check_int "one automatic recovery" 1 (Cdna.Driver.recoveries driver);
  check_bool "old handle revoked" true (Cdna.Hyp.is_revoked h);
  check_bool "rebound to a live handle" false
    (Cdna.Hyp.is_revoked (Cdna.Driver.handle driver));
  check_bool "driver ready again" true (Guestos.Nic_driver.ready (Cdna.Driver.core driver));
  (* Same MAC carried over to the replacement context. *)
  check_bool "mac preserved across recovery" true
    (Ethernet.Mac_addr.equal
       (Cdna.Hyp.mac_of (Cdna.Driver.handle driver))
       (Ethernet.Mac_addr.make 1));
  let before = !wire in
  send 5 100;
  run fx 20;
  check_bool "traffic resumes after recovery" true (!wire >= before + 5)

let test_malicious_native_driver_contained () =
  (* Protection disabled: the rogue guest self-programs its context with
     the guest driver's ring back end, whose end-of-packet descriptors carry
     forged sequence numbers. The NIC's own sequence check still halts
     the context; nothing forged reaches the wire and the benign guest is
     untouched. *)
  let fx = fixture ~protection:Cdna.Cdna_costs.Disabled () in
  let h1 = assign fx ~mac_idx:1 () in
  let d1 =
    Cdna.Driver.create ~hyp:fx.cdna ~handle:h1 ~costs:os_costs ()
  in
  let h2 = assign fx ~guest:fx.guest2 ~mac_idx:2 () in
  let post_kernel dom ~cost fn = Xen.Hypervisor.kernel_work fx.xen dom ~cost fn in
  let nd =
    Guestos.Nic_driver.create ~mem:fx.mem
      ~post_kernel:(post_kernel fx.guest2) ~costs:os_costs
      ~hw:(Cdna.Hyp.driver_if h2)
      ~mac:(Ethernet.Mac_addr.make 2)
      ~alloc_pages:(fun n -> Xen.Hypervisor.alloc_pages fx.xen fx.guest2 n)
      ~tx_slots:16 ~rx_slots:16 ~backend:Guestos.Nic_driver.Ring ()
  in
  Cdna.Hyp.set_event_handler h2 (fun () ->
      Guestos.Nic_driver.handle_interrupt nd);
  Guestos.Nic_driver.set_malice nd
    (Some Guestos.Nic_driver.Out_of_sequence);
  run fx 5;
  let stack1 =
    Guestos.Net_stack.create ~post_kernel:(post_kernel fx.guest)
      ~costs:os_costs ~netdev:(Guestos.Nic_driver.netdev (Cdna.Driver.core d1))
  in
  let stack2 =
    Guestos.Net_stack.create ~post_kernel:(post_kernel fx.guest2)
      ~costs:os_costs
      ~netdev:(Guestos.Nic_driver.netdev nd)
  in
  let rogue_on_wire = ref 0 and benign_on_wire = ref 0 in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun f ->
      if Ethernet.Mac_addr.equal f.Ethernet.Frame.src (Ethernet.Mac_addr.make 2)
      then incr rogue_on_wire
      else incr benign_on_wire);
  let frames src n =
    List.init n (fun i ->
        Ethernet.Frame.make
          ~src:(Ethernet.Mac_addr.make src)
          ~dst:(Ethernet.Mac_addr.make 99) ~kind:Ethernet.Frame.Data ~flow:src
          ~seq:i ~payload_len:900 ~payload_seed:i ())
  in
  Guestos.Net_stack.send stack2 (frames 2 8);
  Guestos.Net_stack.send stack1 (frames 1 8);
  run fx 20;
  check_int "benign traffic all delivered" 8 !benign_on_wire;
  check_int "no forged frame on the wire" 0 !rogue_on_wire;
  check_bool "descriptors were forged" true
    (Guestos.Nic_driver.malicious_descs nd > 0);
  check_bool "fault attributed to the rogue guest" true
    (List.exists
       (fun (dom, ctx) ->
         dom = Xen.Domain.id fx.guest2 && ctx = Cdna.Hyp.ctx_id h2)
       (Cdna.Hyp.faults fx.cdna));
  check_bool "benign context still active" true
    (Nic.Dp.is_active (Cdna.Cnic.dp fx.nic) ~ctx:(Cdna.Hyp.ctx_id h1))

(* ---------- Context oversubscription (hypervisor-mediated paging) ---------- *)

let test_paging_lifecycle_preserves_tx_state () =
  let fx = fixture ~paging:true () in
  let m = metrics_of fx in
  let swaps () = Sim.Metrics.sum m "cdna.ctx_swaps" in
  let wire = ref 0 in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun _ -> incr wire);
  let h1 = assign fx ~mac_idx:1 () in
  setup_rings fx h1;
  let hw1 = Cdna.Hyp.driver_if h1 in
  let slot0 = Cdna.Hyp.ctx_id h1 in
  (* Two frames before any paging: the hypervisor stamps seqnos 0 and 1. *)
  (match
     await fx (fun k ->
         Cdna.Hyp.enqueue fx.cdna h1 Cdna.Hyp.Tx
           [ own_desc fx h1 (); own_desc fx h1 () ]
           k)
   with
  | Ok prod -> check_int "producer" 2 prod
  | Error _ -> Alcotest.fail "enqueue failed");
  hw1.Nic.Driver_if.stage_tx_meta (meta_frame h1 ~seq:0);
  hw1.Nic.Driver_if.stage_tx_meta (meta_frame h1 ~seq:1);
  hw1.Nic.Driver_if.tx_doorbell 2;
  run fx 5;
  check_int "two frames before paging" 2 !wire;
  (* A sentinel in the general-purpose half of the partition must travel
     with the context image — and never be visible to the slot's next
     owner. *)
  let m0 = Bus.Mmio.map (Nic.Firmware.region (Cdna.Cnic.firmware fx.nic) ~ctx:slot0) in
  Bus.Mmio.write32 m0 ~offset:512 0xBEEF;
  (* Fill every remaining hardware slot... *)
  for i = 1 to Cdna.Cnic.num_contexts - 1 do
    ignore (assign fx ~guest:fx.guest2 ~mac_idx:(100 + i) ())
  done;
  check_bool "swap series registered" true
    (List.mem_assoc "cdna.ctx_swaps" (Sim.Metrics.snapshot m));
  check_int "no swap while slots remain" 0 (swaps ());
  (* ...and one more: the LRU context (h1, idle since its transmit) is
     saved to its per-guest area and the newcomer takes its slot. *)
  let h33 = assign fx ~guest:fx.guest2 ~mac_idx:200 () in
  check_int "one save" 1 (swaps ());
  check_int "newcomer on the victim's slot" slot0 (Cdna.Hyp.ctx_id h33);
  check_int "victim partition scrubbed" 0 (Bus.Mmio.read32 m0 ~offset:512);
  (* Touch the paged-out context: enqueue continues the sequence (2, 3)
     and the doorbell faults the context back in on a freshly evicted
     slot, transparently to the driver. *)
  (match
     await fx (fun k ->
         Cdna.Hyp.enqueue fx.cdna h1 Cdna.Hyp.Tx
           [ own_desc fx h1 (); own_desc fx h1 () ]
           k)
   with
  | Ok prod -> check_int "producer continues" 4 prod
  | Error _ -> Alcotest.fail "enqueue after page-out failed");
  hw1.Nic.Driver_if.stage_tx_meta (meta_frame h1 ~seq:2);
  hw1.Nic.Driver_if.stage_tx_meta (meta_frame h1 ~seq:3);
  hw1.Nic.Driver_if.tx_doorbell 4;
  run fx 5;
  check_int "save of the new victim + restore" 3 (swaps ());
  check_int "all four frames on the wire" 4 !wire;
  check_bool "seqno continuity across the swap: no faults" true
    (Cdna.Hyp.faults fx.cdna = []);
  let slot' = Cdna.Hyp.ctx_id h1 in
  check_bool "restored on a different slot" true (slot' <> slot0);
  check_bool "restored slot live" true
    (Nic.Dp.is_active (Cdna.Cnic.dp fx.nic) ~ctx:slot');
  let m' = Bus.Mmio.map (Nic.Firmware.region (Cdna.Cnic.firmware fx.nic) ~ctx:slot') in
  check_int "partition image followed the context" 0xBEEF
    (Bus.Mmio.read32 m' ~offset:512)

(* A page-out that finds the guest with a frame on the wire, frames in
   the NIC's ready FIFO, a half-assembled scatter/gather packet and an
   unread receive completion. The guest that takes the vacated slot finds
   it reset; the paged-out guest, back on another slot, sends every frame
   once and in order and still finds its completion. A slot's
   [nic.ctx.tx_frames] gauge reads the frame counter of the record on it,
   so the count moves with the guest. *)
let test_paging_moves_mid_flight_record () =
  let fx = fixture ~paging:true () in
  let dp = Cdna.Cnic.dp fx.nic in
  let m = metrics_of fx in
  let slot_frames ctx =
    Sim.Metrics.sum m (Printf.sprintf "nic.ctx.tx_frames{ctx=%d,nic=cnic0}" ctx)
  in
  let mac = Ethernet.Mac_addr.make in
  let wired = ref [] in
  Ethernet.Link.attach fx.link Ethernet.Link.B (fun f ->
      wired :=
        (Ethernet.Mac_addr.to_int48 f.Ethernet.Frame.src, f.Ethernet.Frame.seq)
        :: !wired);
  let sent_by src =
    let src = Ethernet.Mac_addr.to_int48 (mac src) in
    List.rev
      (List.filter_map (fun (s, q) -> if s = src then Some q else None) !wired)
  in
  let frame ?(dst = 99) ~src ~seq () =
    Ethernet.Frame.make ~src:(mac src) ~dst:(mac dst) ~kind:Ethernet.Frame.Data
      ~flow:src ~seq ~payload_len:1500 ~payload_seed:seq ()
  in
  let enqueue h dir descs =
    match await fx (fun k -> Cdna.Hyp.enqueue fx.cdna h dir descs k) with
    | Ok prod -> prod
    | Error _ -> Alcotest.fail "enqueue failed"
  in
  let others =
    List.init (Cdna.Cnic.num_contexts - 1) (fun i ->
        assign fx ~guest:fx.guest2 ~mac_idx:(100 + i) ())
  in
  let h1 = assign fx ~mac_idx:1 () in
  setup_rings fx h1;
  let hw1 = Cdna.Hyp.driver_if h1 in
  let slot0 = Cdna.Hyp.ctx_id h1 in
  ignore (enqueue h1 Cdna.Hyp.Rx [ own_desc fx h1 ~len:1500 () ]);
  hw1.Nic.Driver_if.rx_doorbell 1;
  Ethernet.Link.send fx.link ~from:Ethernet.Link.B
    (frame ~dst:1 ~src:500 ~seq:0 ())
    ~on_wire_free:ignore;
  (* Five whole packets and two fragments of a sixth. *)
  let fragment () = { (own_desc fx h1 ()) with Memory.Dma_desc.flags = 0 } in
  check_int "seven descriptors" 7
    (enqueue h1 Cdna.Hyp.Tx
       (List.init 5 (fun _ -> own_desc fx h1 ())
       @ [ fragment (); fragment () ]));
  for seq = 0 to 5 do
    hw1.Nic.Driver_if.stage_tx_meta (frame ~src:1 ~seq ())
  done;
  check_int "completion unread" 1 (Nic.Dp.rx_completions_pending dp ~ctx:slot0);
  hw1.Nic.Driver_if.tx_doorbell 7;
  (* Touch every other guest so that [h1] is the LRU, then page it out
     for a newcomer, recording how far the detach rolled back. *)
  let rollback = ref (-1) in
  let newcomer = ref None in
  Sim.Engine.schedule fx.engine ~delay:(us 20) (fun () ->
      List.iter
        (fun o ->
          let hw = Cdna.Hyp.driver_if o in
          ignore (hw.Nic.Driver_if.take_tx_completions ()))
        others;
      Sim.Trace.set_sink
        (Some
           (fun ev ->
             let n = List.assoc_opt "rollback_descs" ev.Sim.Trace.args in
             match (ev.Sim.Trace.name, n) with
             | "ctx-save", Some (Sim.Trace.Int n) -> rollback := n
             | _ -> ()));
      Fun.protect
        ~finally:(fun () -> Sim.Trace.set_sink None)
        (fun () ->
          newcomer := Some (assign fx ~guest:fx.guest2 ~mac_idx:200 ())));
  run fx 1;
  let h2 = Option.get !newcomer in
  check_int "newcomer on the vacated slot" slot0 (Cdna.Hyp.ctx_id h2);
  check_int "three staged packets and two fragments rolled back" 5 !rollback;
  check
    Alcotest.(list int)
    "one frame left before the page-out" [ 0; 1 ] (sent_by 1);
  check_int "newcomer: no receive completion" 0
    (Nic.Dp.rx_completions_pending dp ~ctx:slot0);
  check_int "newcomer: no transmit completion" 0
    (Nic.Dp.take_tx_completions dp ~ctx:slot0);
  check_int "newcomer: no frames counted" 0 (slot_frames slot0);
  (* Reset cursors, no metas and expected seqno 0: the newcomer's first
     descriptor (seqno 0, ring index 0) carries its own frame. *)
  setup_rings fx h2;
  check_int "newcomer producer" 1
    (enqueue h2 Cdna.Hyp.Tx [ own_desc fx h2 () ]);
  let hw2 = Cdna.Hyp.driver_if h2 in
  hw2.Nic.Driver_if.stage_tx_meta (frame ~src:200 ~seq:42 ());
  hw2.Nic.Driver_if.tx_doorbell 1;
  run fx 1;
  check Alcotest.(list int) "newcomer sends its own frame" [ 42 ] (sent_by 200);
  check_int "newcomer: its frame counted" 1 (slot_frames slot0);
  (* The doorbell for the last fragment faults [h1] back in, on another
     slot. *)
  check_int "producer continues" 8
    (enqueue h1 Cdna.Hyp.Tx [ own_desc fx h1 () ]);
  hw1.Nic.Driver_if.tx_doorbell 8;
  check_bool "back on another slot" true (Cdna.Hyp.ctx_id h1 <> slot0);
  run fx 5;
  check Alcotest.(list int) "every frame once, in order" [ 0; 1; 2; 3; 4; 5 ]
    (sent_by 1);
  check_bool "no faults" true (Cdna.Hyp.faults fx.cdna = []);
  check_int "the count moved with the guest" 6
    (slot_frames (Cdna.Hyp.ctx_id h1));
  check_int "completion still unread" 1
    (hw1.Nic.Driver_if.rx_completions_pending ())

(* Random interleavings of transmits and forced evictions on a fully
   subscribed NIC: sequence numbers stay continuous across every
   save/restore (no context ever faults, every staged frame reaches the
   wire), inherited slots never leak the previous owner's partition data,
   and each context's own partition image survives arbitrarily many
   swaps. *)
(* Paging is fixed when the hypervisor is created, so a registry
   registered straight after [create] already carries the swap series;
   without paging the series stays out of the metric set. *)
let test_paging_swap_series_from_create () =
  let has_swaps ~paging =
    let engine = Sim.Engine.create () in
    let cpu = Host.Cpu.create engine ~profile:(Host.Profile.create ()) () in
    let mem = Memory.Phys_mem.create ~total_pages:64 () in
    let xen = Xen.Hypervisor.create engine ~cpu ~mem ~costs:xen_costs () in
    let cdna = Cdna.Hyp.create xen ~costs:cdna_costs ~paging () in
    let m = Sim.Metrics.create () in
    Cdna.Hyp.register_metrics cdna m;
    List.mem_assoc "cdna.ctx_swaps" (Sim.Metrics.snapshot m)
  in
  check_bool "swap series with paging" true (has_swaps ~paging:true);
  check_bool "no swap series without paging" false (has_swaps ~paging:false)

(* The save area holds the partition's written prefix, however long: the
   last word of the partition and a mailbox word both travel with the
   context to a different slot, and the slot's newcomer reads 0 at
   both. *)
let test_paging_saves_whole_written_prefix () =
  let fx = fixture ~paging:true () in
  let fw = Cdna.Cnic.firmware fx.nic in
  let read ctx offset =
    Bus.Mmio.read32 (Bus.Mmio.map (Nic.Firmware.region fw ~ctx)) ~offset
  in
  let last = Memory.Addr.page_size - 4 and mbox = 7 in
  let h1 = assign fx ~mac_idx:1 () in
  let slot0 = Cdna.Hyp.ctx_id h1 in
  Bus.Mmio.write32 (Bus.Mmio.map (Nic.Firmware.region fw ~ctx:slot0))
    ~offset:last 0xF00D;
  Nic.Mailbox.poke (Nic.Firmware.mailbox fw) ~ctx:slot0 ~mbox 0xCAFE;
  for i = 1 to Cdna.Cnic.num_contexts - 1 do
    ignore (assign fx ~guest:fx.guest2 ~mac_idx:(100 + i) ())
  done;
  let newcomer = assign fx ~guest:fx.guest2 ~mac_idx:200 () in
  check_int "newcomer on the victim's slot" slot0 (Cdna.Hyp.ctx_id newcomer);
  check_int "newcomer reads 0 at the last word" 0 (read slot0 last);
  check_int "newcomer reads 0 at the mailbox" 0 (read slot0 (mbox * 4));
  (* Any hardware access faults the context back in. *)
  ignore ((Cdna.Hyp.driver_if h1).Nic.Driver_if.rx_completions_pending ());
  let slot1 = Cdna.Hyp.ctx_id h1 in
  check_bool "restored on a different slot" true (slot1 <> slot0);
  check_int "last word restored" 0xF00D (read slot1 last);
  check_int "mailbox restored" 0xCAFE
    (Nic.Mailbox.value (Nic.Firmware.mailbox fw) ~ctx:slot1 ~mbox);
  check_int "newcomer's slot still 0 at the last word" 0 (read slot0 last)

(* Partition save and restore against a full-copy reference: random
   writes at any word offset, pokes, and saves and restores chaining
   images through save areas across contexts. The reference copies and
   scrubs all 1,024 words and every pending-event bit, as a save did
   before it kept only the written prefix; every word of every partition
   and every context's pending mailboxes must match it after each
   operation. *)
let prop_partition_save_matches_full_copy =
  let contexts = 3 and areas = 3 and words = Memory.Addr.page_size / 4 in
  let op =
    QCheck.Gen.(
      let ctx = int_range 0 (contexts - 1) and area = int_range 0 (areas - 1) in
      let word = oneof [ int_range 0 23; int_range 0 (words - 1); return (words - 1) ] in
      let value = oneof [ return 0; int_range 1 0xFFFF ] in
      frequency
        [
          (4, map3 (fun c w v -> `Write (c, w, v)) ctx word value);
          (1, map3 (fun c b v -> `Poke (c, b, v)) ctx (int_range 0 23) value);
          (2, map2 (fun c a -> `Save (c, a)) ctx area);
          (2, map2 (fun c a -> `Restore (c, a)) ctx area);
        ])
  in
  let print = function
    | `Write (c, w, v) -> Printf.sprintf "write ctx%d w%d %d" c w v
    | `Poke (c, b, v) -> Printf.sprintf "poke ctx%d mbox%d %d" c b v
    | `Save (c, a) -> Printf.sprintf "save ctx%d -> area%d" c a
    | `Restore (c, a) -> Printf.sprintf "restore area%d -> ctx%d" a c
  in
  QCheck.Test.make ~name:"partition save/restore matches a full-copy reference"
    ~count:200
    QCheck.(make ~print:Print.(list print) Gen.(list_size (int_range 1 40) op))
    (fun ops ->
      let mb = Nic.Mailbox.create ~contexts ~on_event:ignore in
      let maps =
        Array.init contexts (fun ctx -> Bus.Mmio.map (Nic.Mailbox.region mb ~ctx))
      in
      let saved = Array.init areas (fun _ -> Nic.Mailbox.save_area ()) in
      let ref_words = Array.init contexts (fun _ -> Array.make words 0) in
      let ref_boxes = Array.make contexts 0 in
      let ref_saved = Array.init areas (fun _ -> (Array.make words 0, 0)) in
      List.for_all
        (fun op ->
          (match op with
          | `Write (c, w, v) ->
              Bus.Mmio.write32 maps.(c) ~offset:(w * 4) v;
              ref_words.(c).(w) <- v;
              if w < 24 then ref_boxes.(c) <- ref_boxes.(c) lor (1 lsl w)
          | `Poke (c, b, v) ->
              Nic.Mailbox.poke mb ~ctx:c ~mbox:b v;
              ref_words.(c).(b) <- v
          | `Save (c, a) ->
              Nic.Mailbox.save_partition mb ~ctx:c saved.(a);
              ref_saved.(a) <- (Array.copy ref_words.(c), ref_boxes.(c));
              Array.fill ref_words.(c) 0 words 0;
              ref_boxes.(c) <- 0
          | `Restore (c, a) ->
              Nic.Mailbox.restore_partition mb ~ctx:c saved.(a);
              let image, boxes = ref_saved.(a) in
              Array.blit image 0 ref_words.(c) 0 words;
              if boxes <> 0 then ref_boxes.(c) <- boxes);
          List.for_all
            (fun c ->
              Nic.Mailbox.pending_boxes mb ~ctx:c = ref_boxes.(c)
              && Nic.Mailbox.pending_contexts mb land (1 lsl c) <> 0
                 = (ref_boxes.(c) <> 0)
              && Array.for_all Fun.id
                   (Array.init words (fun w ->
                        Bus.Mmio.read32 maps.(c) ~offset:(w * 4)
                        = ref_words.(c).(w))))
            (List.init contexts Fun.id))
        ops)

let prop_paging_interleaving =
  QCheck.Test.make
    ~name:
      "random evict/touch interleavings preserve seqno continuity and \
       partition isolation"
    ~count:12
    QCheck.(list_of_size Gen.(int_range 4 10) (int_range 0 2))
    (fun ops ->
      let fx = fixture ~paging:true () in
      let wire = ref 0 in
      Ethernet.Link.attach fx.link Ethernet.Link.B (fun _ -> incr wire);
      let h1 = assign fx ~mac_idx:1 () in
      setup_rings fx h1;
      let h2 = assign fx ~guest:fx.guest2 ~mac_idx:2 () in
      setup_rings fx h2;
      let sentinel = [| 0xAAAA; 0xBBBB |] in
      List.iteri
        (fun i h ->
          let m =
            Bus.Mmio.map (Nic.Firmware.region (Cdna.Cnic.firmware fx.nic) ~ctx:(Cdna.Hyp.ctx_id h))
          in
          Bus.Mmio.write32 m ~offset:512 sentinel.(i))
        [ h1; h2 ];
      for i = 1 to Cdna.Cnic.num_contexts - 2 do
        ignore (assign fx ~guest:fx.guest2 ~mac_idx:(100 + i) ())
      done;
      let sent = ref 0 in
      let fresh = ref 0 in
      let ok = ref true in
      let touch h =
        let hw = Cdna.Hyp.driver_if h in
        (match
           await fx (fun k ->
               Cdna.Hyp.enqueue fx.cdna h Cdna.Hyp.Tx [ own_desc fx h () ] k)
         with
        | Ok prod ->
            hw.Nic.Driver_if.stage_tx_meta (meta_frame h ~seq:prod);
            hw.Nic.Driver_if.tx_doorbell prod;
            incr sent
        | Error _ -> ok := false);
        run fx 2
      in
      let evict () =
        incr fresh;
        let hn = assign fx ~guest:fx.guest2 ~mac_idx:(200 + !fresh) () in
        (* The newcomer must find its inherited slot scrubbed. *)
        let m =
          Bus.Mmio.map (Nic.Firmware.region (Cdna.Cnic.firmware fx.nic) ~ctx:(Cdna.Hyp.ctx_id hn))
        in
        if Bus.Mmio.read32 m ~offset:512 <> 0 then ok := false;
        run fx 2
      in
      List.iter
        (fun op -> match op with 0 -> touch h1 | 1 -> touch h2 | _ -> evict ())
        ops;
      (* Bring both traffic contexts back in and verify their images. *)
      touch h1;
      touch h2;
      List.iteri
        (fun i h ->
          let m =
            Bus.Mmio.map (Nic.Firmware.region (Cdna.Cnic.firmware fx.nic) ~ctx:(Cdna.Hyp.ctx_id h))
          in
          if Bus.Mmio.read32 m ~offset:512 <> sentinel.(i) then ok := false)
        [ h1; h2 ];
      !ok && !wire = !sent
      && Cdna.Hyp.faults fx.cdna = []
      && Sim.Metrics.sum (metrics_of fx) "nic.faults" = 0)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "cdna.seqno",
      [
        Alcotest.test_case "basics" `Quick test_seqno_basics;
        Alcotest.test_case "stale detection" `Quick test_seqno_stale_detection;
        qcheck prop_seqno_no_alias;
        qcheck prop_seqno_wraparound_continuity;
      ] );
    ( "cdna.intr_vector",
      [
        Alcotest.test_case "roundtrip" `Quick test_intr_vector_roundtrip;
        Alcotest.test_case "producer/consumer" `Quick
          test_intr_vector_producer_consumer_protocol;
        Alcotest.test_case "drain only landed" `Quick test_intr_vector_drain_only_landed;
      ] );
    ( "cdna.contexts",
      [
        Alcotest.test_case "unique assignment" `Quick test_hyp_assign_unique_contexts;
        Alcotest.test_case "exhaustion" `Quick test_hyp_context_exhaustion;
        Alcotest.test_case "revoke frees" `Quick test_hyp_revoke_frees_context;
        Alcotest.test_case "faulted slot withheld" `Quick
          test_faulted_slot_withheld_until_reset;
      ] );
    ( "cdna.paging",
      [
        Alcotest.test_case "lifecycle preserves tx state" `Quick
          test_paging_lifecycle_preserves_tx_state;
        Alcotest.test_case "swap series from create" `Quick
          test_paging_swap_series_from_create;
        Alcotest.test_case "saves the whole written prefix" `Quick
          test_paging_saves_whole_written_prefix;
        Alcotest.test_case "moves a mid-flight record" `Quick
          test_paging_moves_mid_flight_record;
        qcheck prop_partition_save_matches_full_copy;
        qcheck prop_paging_interleaving;
      ] );
    ( "cdna.protection",
      [
        Alcotest.test_case "validates ownership" `Quick test_hyp_enqueue_validates_ownership;
        Alcotest.test_case "all-or-nothing batch" `Quick test_hyp_enqueue_rejects_whole_batch;
        Alcotest.test_case "pins and lazily unpins" `Quick
          test_hyp_enqueue_pins_and_lazily_unpins;
        Alcotest.test_case "pinned page cannot move" `Quick test_hyp_pinned_page_cannot_move;
        Alcotest.test_case "ring full" `Quick test_hyp_enqueue_ring_full;
        Alcotest.test_case "unregistered ring" `Quick test_hyp_enqueue_unregistered_ring;
        Alcotest.test_case "after revoke" `Quick test_hyp_enqueue_after_revoke;
        Alcotest.test_case "register after revoke" `Quick
          test_hyp_register_after_revoke;
        Alcotest.test_case "ring registration validates" `Quick
          test_hyp_ring_registration_validates;
        Alcotest.test_case "revoke unpins" `Quick test_hyp_revoke_unpins_everything;
        Alcotest.test_case "pin ledger (full)" `Quick
          (test_pin_ledger Cdna.Cdna_costs.Full);
        Alcotest.test_case "pin ledger (iommu)" `Quick
          (test_pin_ledger Cdna.Cdna_costs.Iommu);
        Alcotest.test_case "pin ledger rejects (full)" `Quick
          (test_pin_ledger_rejects Cdna.Cdna_costs.Full);
        Alcotest.test_case "pin ledger rejects (iommu)" `Quick
          (test_pin_ledger_rejects Cdna.Cdna_costs.Iommu);
        Alcotest.test_case "bad length (full)" `Quick
          (test_bad_length_fails_one_call Cdna.Cdna_costs.Full);
        Alcotest.test_case "bad length (iommu)" `Quick
          (test_bad_length_fails_one_call Cdna.Cdna_costs.Iommu);
        Alcotest.test_case "bad length (disabled)" `Quick
          (test_bad_length_fails_one_call Cdna.Cdna_costs.Disabled);
        Alcotest.test_case "bad ring size (full)" `Quick
          (test_bad_ring_size_fails_one_call Cdna.Cdna_costs.Full);
        Alcotest.test_case "bad ring size (iommu)" `Quick
          (test_bad_ring_size_fails_one_call Cdna.Cdna_costs.Iommu);
        Alcotest.test_case "bad ring size (disabled)" `Quick
          (test_bad_ring_size_fails_one_call Cdna.Cdna_costs.Disabled);
        Alcotest.test_case "backwards doorbell via mapping (full)" `Quick
          (test_backwards_doorbell_through_mapping Cdna.Cdna_costs.Full);
        Alcotest.test_case "backwards doorbell via mapping (iommu)" `Quick
          (test_backwards_doorbell_through_mapping Cdna.Cdna_costs.Iommu);
        Alcotest.test_case "fault attribution" `Quick test_fault_attributed_to_guest;
        Alcotest.test_case "disabled mode" `Quick test_disabled_mode_skips_validation;
        Alcotest.test_case "iommu mode" `Quick test_iommu_mode_blocks_foreign_dma;
        Alcotest.test_case "forged descriptor blocked (full)" `Quick
          test_forged_descriptor_blocked_under_full;
        Alcotest.test_case "forged descriptor corrupts (disabled)" `Quick
          test_forged_descriptor_corrupts_when_disabled;
      ] );
    ( "cdna.driver",
      [
        Alcotest.test_case "comes up" `Quick test_driver_comes_up;
        Alcotest.test_case "transmit roundtrip" `Quick test_driver_transmit_roundtrip;
        Alcotest.test_case "receive roundtrip" `Quick test_driver_receive_roundtrip;
        Alcotest.test_case "materialized integrity" `Quick test_driver_materialized_integrity;
        Alcotest.test_case "virq flow" `Quick test_driver_virq_flow;
        Alcotest.test_case "two guests isolated" `Quick test_driver_two_guests_isolated_traffic;
        Alcotest.test_case "revocation under load" `Quick test_revocation_under_load;
        Alcotest.test_case "compact layout end-to-end" `Quick
          test_compact_layout_cdna_end_to_end;
        Alcotest.test_case "context migration" `Quick test_context_migration;
        Alcotest.test_case "enqueue accounting" `Quick test_enqueue_call_accounting;
      ] );
    ( "cdna.fault_injection",
      [
        Alcotest.test_case "auto recovery from injected fault" `Quick
          test_driver_auto_recovery_from_injected_fault;
        Alcotest.test_case "malicious native driver contained" `Quick
          test_malicious_native_driver_contained;
      ] );
  ]
