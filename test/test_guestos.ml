(* Tests for the guest OS library: netdev plumbing, the network stack,
   the bridge, the shared channel, the native driver end-to-end against a
   real NIC, and the netfront/netback paravirtual path. *)

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

let netback_costs =
  {
    Guestos.Netback.per_pkt_tx = Sim.Time.ns 1_200;
    per_pkt_rx = Sim.Time.ns 1_800;
    bridge_per_pkt = Sim.Time.ns 600;
    wakeup_fixed = Sim.Time.us 2;
    per_ring_visit = Sim.Time.ns 700;
    tx_budget = 96;
    rx_budget = 96;
    rx_overflow_cap = 512;
  }

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let us = Sim.Time.us

let mk_frame ?(flow = 0) ?(seq = 0) ?(len = 1000) ~src ~dst () =
  Ethernet.Frame.make ~src ~dst ~kind:Ethernet.Frame.Data ~flow ~seq
    ~payload_len:len ~payload_seed:(flow + seq + 1) ()

(* ---------- Netdev ---------- *)

let test_netdev_plumbing () =
  let sent = ref [] in
  let nd =
    Guestos.Netdev.create ~mac:(Ethernet.Mac_addr.make 1)
      ~send:(fun fs -> sent := fs @ !sent)
      ~tx_space:(fun () -> 3)
  in
  let rxed = ref 0 and done_count = ref 0 and writable = ref 0 in
  Guestos.Netdev.set_rx_handler nd (fun fs -> rxed := !rxed + List.length fs);
  Guestos.Netdev.set_tx_done_handler nd (fun n -> done_count := !done_count + n);
  Guestos.Netdev.set_writable_hook nd (fun () -> incr writable);
  let f = mk_frame ~src:(Ethernet.Mac_addr.make 1) ~dst:(Ethernet.Mac_addr.make 2) () in
  Guestos.Netdev.send nd [ f; f ];
  check_int "sent through" 2 (List.length !sent);
  check_int "counter" 2 (Guestos.Netdev.frames_sent nd);
  Guestos.Netdev.deliver_rx nd [ f ];
  check_int "rx delivered" 1 !rxed;
  check_int "rx counter" 1 (Guestos.Netdev.frames_received nd);
  Guestos.Netdev.notify_tx_done nd 2;
  Guestos.Netdev.notify_writable nd;
  check_int "tx done" 2 !done_count;
  check_int "writable" 1 !writable;
  check_int "tx space" 3 (Guestos.Netdev.tx_space nd)

(* ---------- Net_stack ---------- *)

let stack_fixture ~tx_space =
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let entity = Host.Cpu.add_entity cpu ~name:"g" ~weight:256 ~domain:0 in
  let post_kernel ~cost fn =
    Host.Cpu.post cpu entity ~category:(Host.Category.Kernel 0) ~cost fn
  in
  let dev_sent = ref [] in
  let space = ref tx_space in
  let nd =
    Guestos.Netdev.create ~mac:(Ethernet.Mac_addr.make 1)
      ~send:(fun fs ->
        space := !space - List.length fs;
        dev_sent := !dev_sent @ fs)
      ~tx_space:(fun () -> !space)
  in
  let stack =
    Guestos.Net_stack.create ~post_kernel ~costs:os_costs
      ~netdev:nd
  in
  (engine, profile, nd, stack, dev_sent, space)

let run engine ms =
  Sim.Engine.run engine
    ~until:(Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms ms))

let test_stack_send_charges_kernel_time () =
  let engine, profile, _, stack, dev_sent, _ = stack_fixture ~tx_space:10 in
  let f = mk_frame ~src:(Ethernet.Mac_addr.make 1) ~dst:(Ethernet.Mac_addr.make 2) () in
  Guestos.Net_stack.send stack [ f; f; f ];
  check_int "nothing before CPU runs" 0 (List.length !dev_sent);
  run engine 1;
  check_int "all pushed" 3 (List.length !dev_sent);
  check_int "sent counter" 3 (Guestos.Net_stack.frames_sent stack);
  check_bool "kernel time charged" true
    (Host.Profile.total profile (Host.Category.Kernel 0) > 0)

let test_stack_backlog_and_drain () =
  let engine, _, nd, stack, dev_sent, space = stack_fixture ~tx_space:2 in
  let f = mk_frame ~src:(Ethernet.Mac_addr.make 1) ~dst:(Ethernet.Mac_addr.make 2) () in
  let writable = ref 0 in
  Guestos.Net_stack.set_writable_hook stack (fun () -> incr writable);
  Guestos.Net_stack.send stack [ f; f; f; f ];
  run engine 1;
  check_int "device limit respected" 2 (List.length !dev_sent);
  check_int "backlog" 2 (Guestos.Net_stack.backlog stack);
  (* The device completes and frees space. *)
  space := 2;
  Guestos.Netdev.notify_tx_done nd 2;
  run engine 1;
  check_int "drained" 4 (List.length !dev_sent);
  check_int "backlog empty" 0 (Guestos.Net_stack.backlog stack);
  check_bool "writable fired" true (!writable > 0)

let test_stack_rx_path () =
  let engine, profile, nd, stack, _, _ = stack_fixture ~tx_space:10 in
  let got = ref 0 in
  Guestos.Net_stack.set_rx_handler stack (fun fs -> got := !got + List.length fs);
  let f = mk_frame ~src:(Ethernet.Mac_addr.make 2) ~dst:(Ethernet.Mac_addr.make 1) () in
  Guestos.Netdev.deliver_rx nd [ f; f ];
  check_int "async" 0 !got;
  run engine 1;
  check_int "delivered after kernel work" 2 !got;
  check_int "received counter" 2 (Guestos.Net_stack.frames_received stack);
  check_bool "rx kernel cost" true
    (Host.Profile.total profile (Host.Category.Kernel 0) > 0)

(* ---------- Bridge ---------- *)

let test_bridge_routing () =
  let b = Guestos.Bridge.create () in
  let p1 = Guestos.Bridge.add_port b "guest1" in
  let p2 = Guestos.Bridge.add_port b "guest2" in
  let pn = Guestos.Bridge.add_port b "nic" in
  let m1 = Ethernet.Mac_addr.make 1
  and m2 = Ethernet.Mac_addr.make 2
  and peer = Ethernet.Mac_addr.make 9 in
  Guestos.Bridge.learn b p1 m1;
  Guestos.Bridge.learn b p2 m2;
  Guestos.Bridge.learn b pn peer;
  (* Known unicast. *)
  (match Guestos.Bridge.route b ~ingress:p1 (mk_frame ~src:m1 ~dst:peer ()) with
  | Guestos.Bridge.To p -> check Alcotest.string "to nic" "nic" (Guestos.Bridge.payload p)
  | _ -> Alcotest.fail "expected unicast");
  (* Inter-guest. *)
  (match Guestos.Bridge.route b ~ingress:p1 (mk_frame ~src:m1 ~dst:m2 ()) with
  | Guestos.Bridge.To p -> check Alcotest.string "to guest2" "guest2" (Guestos.Bridge.payload p)
  | _ -> Alcotest.fail "expected unicast");
  (* Unknown floods, excluding ingress. *)
  (match
     Guestos.Bridge.route b ~ingress:p1
       (mk_frame ~src:m1 ~dst:(Ethernet.Mac_addr.make 77) ())
   with
  | Guestos.Bridge.Flood ports ->
      check_int "two others" 2 (List.length ports);
      check_bool "not ingress" true
        (List.for_all (fun p -> Guestos.Bridge.payload p <> "guest1") ports)
  | _ -> Alcotest.fail "expected flood");
  (* Destination behind ingress drops. *)
  (match Guestos.Bridge.route b ~ingress:p1 (mk_frame ~src:m1 ~dst:m1 ()) with
  | Guestos.Bridge.Drop -> ()
  | _ -> Alcotest.fail "expected drop")

let test_bridge_learns_from_route () =
  let b = Guestos.Bridge.create () in
  let p1 = Guestos.Bridge.add_port b 1 in
  let _p2 = Guestos.Bridge.add_port b 2 in
  let m = Ethernet.Mac_addr.make 42 in
  ignore
    (Guestos.Bridge.route b ~ingress:p1
       (mk_frame ~src:m ~dst:(Ethernet.Mac_addr.make 1) ()));
  check_bool "learned src" true
    (match Guestos.Bridge.lookup b m with
    | Some p -> Guestos.Bridge.payload p = 1
    | None -> false)

(* ---------- Xchan ---------- *)

let test_xchan_capacity () =
  let x = Guestos.Xchan.create ~capacity:2 in
  let e = { Guestos.Xchan.frame = mk_frame ~src:(Ethernet.Mac_addr.make 1) ~dst:(Ethernet.Mac_addr.make 2) (); pfn = 3 } in
  check_bool "push 1" true (Guestos.Xchan.tx_push x e);
  check_bool "push 2" true (Guestos.Xchan.tx_push x e);
  check_bool "full" false (Guestos.Xchan.tx_push x e);
  check_int "used" 2 (Guestos.Xchan.tx_used x);
  check_int "popped" 3 (Guestos.Xchan.tx_pop x).Guestos.Xchan.pfn;
  check_int "space" 1 (Guestos.Xchan.tx_space x)

let test_xchan_completions () =
  let x = Guestos.Xchan.create ~capacity:4 in
  Guestos.Xchan.push_tx_completion x ~pages:[ 1; 2 ] ~count:2;
  Guestos.Xchan.push_tx_completion x ~pages:[ 3 ] ~count:1;
  check_int "pending" 3 (Guestos.Xchan.tx_completions_pending x);
  let count, pages = Guestos.Xchan.take_tx_completions x in
  check_int "count" 3 count;
  check_int "pages" 3 (List.length pages);
  check_int "cleared" 0 (Guestos.Xchan.tx_completions_pending x)

let test_xchan_returned_pages () =
  let x = Guestos.Xchan.create ~capacity:4 in
  Guestos.Xchan.push_returned_page x 7;
  Guestos.Xchan.push_returned_page x 8;
  check_int "taken" 2 (List.length (Guestos.Xchan.take_returned_pages x));
  check_int "empty after" 0 (List.length (Guestos.Xchan.take_returned_pages x))

(* ---------- Guest driver, ring back end, end-to-end ---------- *)

type native_fixture = {
  nf_engine : Sim.Engine.t;
  nf_driver : Guestos.Nic_driver.t;
  nf_stack : Guestos.Net_stack.t;
  nf_link : Ethernet.Link.t;
}

let native_fixture ?(materialize = false) () =
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let mem = Memory.Phys_mem.create ~total_pages:2048 () in
  let hyp = Xen.Hypervisor.create engine ~cpu ~mem ~costs:xen_costs () in
  let dom =
    Xen.Hypervisor.create_domain hyp ~name:"os" ~kind:Xen.Domain.Native
      ~weight:256 ~mem_pages:1024
  in
  let post_kernel ~cost fn = Xen.Hypervisor.kernel_work hyp dom ~cost fn in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let irq = Bus.Irq.create () in
  let config =
    { Nic.Nic_config.intel with Nic.Nic_config.materialize_payloads = materialize }
  in
  let nic = Nic.Conventional.create engine ~mem ~dma ~config ~irq ~dma_context:0 in
  let link = Ethernet.Link.create engine () in
  Nic.Dp.attach_link (Nic.Conventional.dp nic) link ~side:Ethernet.Link.A;
  Nic.Conventional.enable nic ~mac:(Ethernet.Mac_addr.make 1);
  let driver =
    Guestos.Nic_driver.create ~mem ~post_kernel
      ~costs:os_costs ~hw:(Nic.Conventional.driver_if nic)
      ~mac:(Ethernet.Mac_addr.make 1)
      ~alloc_pages:(fun n -> Xen.Hypervisor.alloc_pages hyp dom n)
      ~materialize ~backend:Guestos.Nic_driver.Ring ()
  in
  Bus.Irq.set_handler irq (fun () ->
      Host.Cpu.post cpu (Xen.Domain.entity dom)
        ~category:(Xen.Domain.kernel dom) ~cost:(us 1) (fun () ->
          Guestos.Nic_driver.handle_interrupt driver));
  let stack =
    Guestos.Net_stack.create ~post_kernel ~costs:os_costs
      ~netdev:(Guestos.Nic_driver.netdev driver)
  in
  { nf_engine = engine; nf_driver = driver; nf_stack = stack; nf_link = link }

let test_native_driver_transmits () =
  let fx = native_fixture () in
  let wire = ref [] in
  Ethernet.Link.attach fx.nf_link Ethernet.Link.B (fun f -> wire := f :: !wire);
  let frames =
    List.init 10 (fun i ->
        mk_frame ~seq:i ~src:(Ethernet.Mac_addr.make 1)
          ~dst:(Ethernet.Mac_addr.make 9) ())
  in
  Guestos.Net_stack.send fx.nf_stack frames;
  run fx.nf_engine 5;
  check_int "all on wire" 10 (List.length !wire);
  check_int "driver tx count" 10 (Guestos.Nic_driver.tx_count fx.nf_driver)

let test_native_driver_receives () =
  let fx = native_fixture () in
  let got = ref [] in
  Guestos.Net_stack.set_rx_handler fx.nf_stack (fun fs -> got := fs @ !got);
  for i = 0 to 4 do
    Ethernet.Link.send fx.nf_link ~from:Ethernet.Link.B
      (mk_frame ~seq:i ~src:(Ethernet.Mac_addr.make 9)
         ~dst:(Ethernet.Mac_addr.make 1) ())
      ~on_wire_free:ignore
  done;
  run fx.nf_engine 5;
  check_int "all delivered" 5 (List.length !got);
  check_int "driver rx count" 5 (Guestos.Nic_driver.rx_count fx.nf_driver);
  check_bool "polled" true (Guestos.Nic_driver.polls fx.nf_driver > 0)

let test_native_driver_ring_wraps () =
  (* More packets than ring slots: recycling must work. *)
  let fx = native_fixture () in
  let wire = ref 0 in
  Ethernet.Link.attach fx.nf_link Ethernet.Link.B (fun _ -> incr wire);
  let total = 600 (* > 256 ring slots, forces multiple wraps *) in
  let rec send_batch i =
    if i < total then begin
      let n = min 50 (total - i) in
      let frames =
        List.init n (fun j ->
            mk_frame ~seq:(i + j) ~src:(Ethernet.Mac_addr.make 1)
              ~dst:(Ethernet.Mac_addr.make 9) ())
      in
      Guestos.Net_stack.send fx.nf_stack frames;
      Sim.Engine.schedule fx.nf_engine ~delay:(Sim.Time.ms 1) (fun () ->
          send_batch (i + n))
    end
  in
  send_batch 0;
  run fx.nf_engine 100;
  check_int "all made it" total !wire

let test_native_driver_materialized_integrity () =
  let fx = native_fixture ~materialize:true () in
  let wire = ref [] in
  Ethernet.Link.attach fx.nf_link Ethernet.Link.B (fun f -> wire := f :: !wire);
  Guestos.Net_stack.send fx.nf_stack
    [ mk_frame ~len:777 ~src:(Ethernet.Mac_addr.make 1) ~dst:(Ethernet.Mac_addr.make 9) () ];
  run fx.nf_engine 5;
  match !wire with
  | [ f ] ->
      check_bool "payload intact through buffers and DMA" true
        (Ethernet.Frame.data_valid f);
      check_bool "bytes attached" true (f.Ethernet.Frame.data <> None)
  | _ -> Alcotest.fail "expected one frame"

let test_native_driver_scatter_gather () =
  (* With sg_split the driver emits header+payload descriptor pairs; the
     NIC reassembles and the receiver verifies every byte. *)
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let mem = Memory.Phys_mem.create ~total_pages:2048 () in
  let hyp = Xen.Hypervisor.create engine ~cpu ~mem ~costs:xen_costs () in
  let dom =
    Xen.Hypervisor.create_domain hyp ~name:"os" ~kind:Xen.Domain.Native
      ~weight:256 ~mem_pages:1024
  in
  let post_kernel ~cost fn = Xen.Hypervisor.kernel_work hyp dom ~cost fn in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let irq = Bus.Irq.create () in
  Bus.Irq.set_handler irq (fun () -> ());
  let config =
    { Nic.Nic_config.intel with Nic.Nic_config.materialize_payloads = true }
  in
  let nic = Nic.Conventional.create engine ~mem ~dma ~config ~irq ~dma_context:0 in
  let link = Ethernet.Link.create engine () in
  Nic.Dp.attach_link (Nic.Conventional.dp nic) link ~side:Ethernet.Link.A;
  Nic.Conventional.enable nic ~mac:(Ethernet.Mac_addr.make 1);
  let driver =
    Guestos.Nic_driver.create ~mem ~post_kernel
      ~costs:os_costs ~hw:(Nic.Conventional.driver_if nic)
      ~mac:(Ethernet.Mac_addr.make 1)
      ~alloc_pages:(fun n -> Xen.Hypervisor.alloc_pages hyp dom n)
      ~materialize:true ~sg_split:128 ~backend:Guestos.Nic_driver.Ring ()
  in
  let stack =
    Guestos.Net_stack.create ~post_kernel ~costs:os_costs
      ~netdev:(Guestos.Nic_driver.netdev driver)
  in
  let wire = ref [] in
  Ethernet.Link.attach link Ethernet.Link.B (fun f -> wire := f :: !wire);
  (* One short packet (single descriptor) and one long (two). *)
  Guestos.Net_stack.send stack
    [
      mk_frame ~seq:0 ~len:100 ~src:(Ethernet.Mac_addr.make 1)
        ~dst:(Ethernet.Mac_addr.make 9) ();
      mk_frame ~seq:1 ~len:1400 ~src:(Ethernet.Mac_addr.make 1)
        ~dst:(Ethernet.Mac_addr.make 9) ();
    ];
  run engine 5;
  check_int "both frames arrived" 2 (List.length !wire);
  List.iter
    (fun f -> check_bool "payload intact across fragments" true (Ethernet.Frame.data_valid f))
    !wire

(* ---------- Netfront/Netback integration ---------- *)

type pv_fixture = {
  pv_engine : Sim.Engine.t;
  pv_stack : Guestos.Net_stack.t;
  pv_netback : Guestos.Netback.t;
  pv_link : Ethernet.Link.t;
  pv_guest : Xen.Domain.t;
  pv_driver_dom : Xen.Domain.t;
  pv_mem : Memory.Phys_mem.t;
  pv_netfront : Guestos.Netfront.t;
  pv_hyp : Xen.Hypervisor.t;
}

let pv_fixture ?(materialize = false) () =
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let mem = Memory.Phys_mem.create ~total_pages:49152 () in
  let hyp = Xen.Hypervisor.create engine ~cpu ~mem ~costs:xen_costs () in
  let driver_dom =
    Xen.Hypervisor.create_domain hyp ~name:"driver" ~kind:Xen.Domain.Driver
      ~weight:256 ~mem_pages:16384
  in
  let guest =
    Xen.Hypervisor.create_domain hyp ~name:"guest" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:8192
  in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let irq = Bus.Irq.create () in
  let config =
    { Nic.Nic_config.intel with Nic.Nic_config.materialize_payloads = materialize }
  in
  let nic = Nic.Conventional.create engine ~mem ~dma ~config ~irq ~dma_context:0 in
  let link = Ethernet.Link.create engine () in
  Nic.Dp.attach_link (Nic.Conventional.dp nic) link ~side:Ethernet.Link.A;
  Nic.Conventional.enable nic ~mac:(Ethernet.Mac_addr.make 100);
  let post_driver ~cost fn = Xen.Hypervisor.kernel_work hyp driver_dom ~cost fn in
  let phys_driver =
    Guestos.Nic_driver.create ~mem ~post_kernel:post_driver
      ~costs:os_costs ~hw:(Nic.Conventional.driver_if nic)
      ~mac:(Ethernet.Mac_addr.make 100)
      ~alloc_pages:(fun n -> Xen.Hypervisor.alloc_pages hyp driver_dom n)
      ~materialize ~backend:Guestos.Nic_driver.Ring ()
  in
  let nic_chan =
    Xen.Event_channel.create hyp ~target:driver_dom ~isr_cost:(us 1)
      ~handler:(fun () -> Guestos.Nic_driver.handle_interrupt phys_driver)
  in
  Xen.Hypervisor.route_irq hyp irq (fun () ->
      Xen.Event_channel.notify_from_hypervisor nic_chan);
  let netback =
    Guestos.Netback.create ~hyp ~gnt:(Xen.Grant_table.create hyp) ~dom:driver_dom
      ~costs:netback_costs ~materialize ()
  in
  Guestos.Netback.add_physical netback
    (Guestos.Nic_driver.netdev phys_driver)
    ~remote_macs:[ Ethernet.Mac_addr.make 200 ];
  let xchan = Guestos.Xchan.create ~capacity:256 in
  let chan_to_driver =
    Xen.Event_channel.create hyp ~target:driver_dom ~isr_cost:(us 1)
      ~handler:(fun () -> Guestos.Netback.schedule netback)
  in
  let netfront =
    Guestos.Netfront.create ~hyp ~gnt:(Xen.Grant_table.create hyp) ~dom:guest ~costs:os_costs
      ~xchan ~mac:(Ethernet.Mac_addr.make 1)
      ~notify_backend:(fun () ->
        Xen.Event_channel.notify chan_to_driver ~from:guest)
      ~materialize ()
  in
  let chan_to_guest =
    Xen.Event_channel.create hyp ~target:guest ~isr_cost:(us 1)
      ~handler:(fun () -> Guestos.Netfront.handle_event netfront)
  in
  ignore
    (Guestos.Netback.add_interface netback ~guest_dom:guest
       ~guest_mac:(Ethernet.Mac_addr.make 1) ~xchan
       ~notify_frontend:(fun () ->
         Xen.Event_channel.notify chan_to_guest ~from:driver_dom));
  let post_guest ~cost fn = Xen.Hypervisor.kernel_work hyp guest ~cost fn in
  let stack =
    Guestos.Net_stack.create ~post_kernel:post_guest
      ~costs:os_costs
      ~netdev:(Guestos.Netfront.netdev netfront)
  in
  {
    pv_engine = engine;
    pv_stack = stack;
    pv_netback = netback;
    pv_link = link;
    pv_guest = guest;
    pv_driver_dom = driver_dom;
    pv_mem = mem;
    pv_netfront = netfront;
    pv_hyp = hyp;
  }

(* The fixture's netback and netfront gauges on a fresh registry: tests
   read their counters there. *)
let pv_metrics fx =
  let m = Sim.Metrics.create () in
  Guestos.Netback.register_metrics fx.pv_netback m;
  Guestos.Netfront.register_metrics fx.pv_netfront m;
  m

let test_pv_guest_transmit () =
  let fx = pv_fixture () in
  let m = pv_metrics fx in
  let wire = ref [] in
  Ethernet.Link.attach fx.pv_link Ethernet.Link.B (fun f -> wire := f :: !wire);
  let frames =
    List.init 20 (fun i ->
        mk_frame ~seq:i ~src:(Ethernet.Mac_addr.make 1)
          ~dst:(Ethernet.Mac_addr.make 200) ())
  in
  Guestos.Net_stack.send fx.pv_stack frames;
  run fx.pv_engine 20;
  check_int "all forwarded to the wire" 20 (List.length !wire);
  check_int "netback counted" 20 (Sim.Metrics.sum m "netback.tx_forwarded");
  check_int "netfront counted" 20 (Sim.Metrics.sum m "netfront.tx_count")

let test_pv_guest_receive () =
  let fx = pv_fixture () in
  let got = ref [] in
  Guestos.Net_stack.set_rx_handler fx.pv_stack (fun fs -> got := fs @ !got);
  for i = 0 to 14 do
    Ethernet.Link.send fx.pv_link ~from:Ethernet.Link.B
      (mk_frame ~seq:i ~src:(Ethernet.Mac_addr.make 200)
         ~dst:(Ethernet.Mac_addr.make 1) ())
      ~on_wire_free:ignore
  done;
  run fx.pv_engine 20;
  check_int "delivered up the guest stack" 15 (List.length !got);
  check_int "netback delivered" 15
    (Sim.Metrics.sum (pv_metrics fx) "netback.rx_delivered")

let test_pv_page_exchange_conserves_pools () =
  let fx = pv_fixture () in
  let m = pv_metrics fx in
  let pool_before = Sim.Metrics.sum m "netfront.pool_size" in
  let nb_before = Sim.Metrics.sum m "netback.pool_size" in
  let guest_pages_before = Xen.Domain.page_count fx.pv_guest in
  let frames =
    List.init 30 (fun i ->
        mk_frame ~seq:i ~src:(Ethernet.Mac_addr.make 1)
          ~dst:(Ethernet.Mac_addr.make 200) ())
  in
  Guestos.Net_stack.send fx.pv_stack frames;
  for i = 0 to 29 do
    Ethernet.Link.send fx.pv_link ~from:Ethernet.Link.B
      (mk_frame ~seq:i ~src:(Ethernet.Mac_addr.make 200)
         ~dst:(Ethernet.Mac_addr.make 1) ())
      ~on_wire_free:ignore
  done;
  run fx.pv_engine 50;
  check_int "netfront pool conserved" pool_before
    (Sim.Metrics.sum m "netfront.pool_size");
  check_int "netback pool conserved" nb_before
    (Sim.Metrics.sum m "netback.pool_size");
  check_int "guest page accounting conserved" guest_pages_before
    (Xen.Domain.page_count fx.pv_guest)

(* Attach one more paravirtual guest to an existing fixture's netback. *)
let add_pv_guest fx ~mac_idx =
  let hyp = fx.pv_hyp in
  let dom =
    Xen.Hypervisor.create_domain hyp
      ~name:(Printf.sprintf "guest%d" mac_idx)
      ~kind:Xen.Domain.Guest ~weight:256 ~mem_pages:8192
  in
  let mac = Ethernet.Mac_addr.make mac_idx in
  let xchan = Guestos.Xchan.create ~capacity:256 in
  let chan_to_driver =
    Xen.Event_channel.create hyp ~target:fx.pv_driver_dom ~isr_cost:(us 1)
      ~handler:(fun () -> Guestos.Netback.schedule fx.pv_netback)
  in
  let netfront =
    Guestos.Netfront.create ~hyp ~gnt:(Xen.Grant_table.create hyp) ~dom
      ~costs:os_costs ~xchan
      ~mac
      ~notify_backend:(fun () ->
        Xen.Event_channel.notify chan_to_driver ~from:dom)
      ()
  in
  let chan_to_guest =
    Xen.Event_channel.create hyp ~target:dom ~isr_cost:(us 1)
      ~handler:(fun () -> Guestos.Netfront.handle_event netfront)
  in
  ignore
    (Guestos.Netback.add_interface fx.pv_netback ~guest_dom:dom
       ~guest_mac:mac ~xchan
       ~notify_frontend:(fun () ->
         Xen.Event_channel.notify chan_to_guest ~from:fx.pv_driver_dom));
  let post_kernel ~cost fn = Xen.Hypervisor.kernel_work hyp dom ~cost fn in
  Guestos.Net_stack.create ~post_kernel ~costs:os_costs
    ~netdev:(Guestos.Netfront.netdev netfront)

let test_pv_inter_guest_traffic () =
  (* Two guests on the same bridge exchange frames without touching the
     physical NIC: guest1 tx -> netback -> bridge -> guest2 rx (paper
     figure 1's bridge interconnects all virtual interfaces). *)
  let fx = pv_fixture () in
  let stack2 = add_pv_guest fx ~mac_idx:2 in
  let got2 = ref [] in
  Guestos.Net_stack.set_rx_handler stack2 (fun fs -> got2 := fs @ !got2);
  let wire = ref 0 in
  Ethernet.Link.attach fx.pv_link Ethernet.Link.B (fun _ -> incr wire);
  let frames =
    List.init 10 (fun i ->
        mk_frame ~seq:i ~src:(Ethernet.Mac_addr.make 1)
          ~dst:(Ethernet.Mac_addr.make 2) ())
  in
  Guestos.Net_stack.send fx.pv_stack frames;
  run fx.pv_engine 20;
  check_int "delivered guest-to-guest" 10 (List.length !got2);
  check_int "nothing left the machine" 0 !wire

let test_netfront_pool_exhaustion_backpressure () =
  (* A netfront with a tiny exchange pool can only expose as much transmit
     capacity as it has pages; the stack backlogs the rest instead of
     losing it, and it drains as completions return pages. *)
  let fx = pv_fixture () in
  ignore fx;
  (* Build a dedicated guest with a 4-page pool on the same fixture. *)
  let hyp = fx.pv_hyp in
  let dom =
    Xen.Hypervisor.create_domain hyp ~name:"tiny" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:4096
  in
  let xchan = Guestos.Xchan.create ~capacity:256 in
  let chan_to_driver =
    Xen.Event_channel.create hyp ~target:fx.pv_driver_dom ~isr_cost:(us 1)
      ~handler:(fun () -> Guestos.Netback.schedule fx.pv_netback)
  in
  let netfront =
    Guestos.Netfront.create ~hyp ~gnt:(Xen.Grant_table.create hyp) ~dom
      ~costs:os_costs ~xchan
      ~mac:(Ethernet.Mac_addr.make 33)
      ~notify_backend:(fun () ->
        Xen.Event_channel.notify chan_to_driver ~from:dom)
      ~pool_pages:4 ()
  in
  let chan_to_guest =
    Xen.Event_channel.create hyp ~target:dom ~isr_cost:(us 1)
      ~handler:(fun () -> Guestos.Netfront.handle_event netfront)
  in
  ignore
    (Guestos.Netback.add_interface fx.pv_netback ~guest_dom:dom
       ~guest_mac:(Ethernet.Mac_addr.make 33) ~xchan
       ~notify_frontend:(fun () ->
         Xen.Event_channel.notify chan_to_guest ~from:fx.pv_driver_dom));
  let post_kernel ~cost fn = Xen.Hypervisor.kernel_work hyp dom ~cost fn in
  let stack =
    Guestos.Net_stack.create ~post_kernel ~costs:os_costs
      ~netdev:(Guestos.Netfront.netdev netfront)
  in
  let wire = ref 0 in
  Ethernet.Link.attach fx.pv_link Ethernet.Link.B (fun _ -> incr wire);
  check_int "pool bounds capacity" 4
    (Guestos.Net_stack.capacity stack);
  Guestos.Net_stack.send stack
    (List.init 12 (fun i ->
         mk_frame ~seq:i ~src:(Ethernet.Mac_addr.make 33)
           ~dst:(Ethernet.Mac_addr.make 200) ()));
  run fx.pv_engine 30;
  (* Despite the 4-page pool, all 12 frames eventually flow (page
     exchange returns pages with completions). *)
  check_int "all drained through the tiny pool" 12 !wire

let test_pv_materialized_integrity () =
  let fx = pv_fixture ~materialize:true () in
  let wire = ref [] in
  Ethernet.Link.attach fx.pv_link Ethernet.Link.B (fun f -> wire := f :: !wire);
  let got = ref [] in
  Guestos.Net_stack.set_rx_handler fx.pv_stack (fun fs -> got := fs @ !got);
  Guestos.Net_stack.send fx.pv_stack
    [ mk_frame ~len:900 ~src:(Ethernet.Mac_addr.make 1) ~dst:(Ethernet.Mac_addr.make 200) () ];
  Ethernet.Link.send fx.pv_link ~from:Ethernet.Link.B
    (Ethernet.Frame.with_data
       (mk_frame ~len:800 ~src:(Ethernet.Mac_addr.make 200)
          ~dst:(Ethernet.Mac_addr.make 1) ()))
    ~on_wire_free:ignore;
  run fx.pv_engine 20;
  (match !wire with
  | [ f ] -> check_bool "tx payload intact through flips" true (Ethernet.Frame.data_valid f)
  | _ -> Alcotest.fail "expected one tx frame");
  match !got with
  | [ f ] -> check_bool "rx payload intact through flips" true (Ethernet.Frame.data_valid f)
  | _ -> Alcotest.fail "expected one rx frame"

let suite =
  [
    ("guestos.netdev", [ Alcotest.test_case "plumbing" `Quick test_netdev_plumbing ]);
    ( "guestos.net_stack",
      [
        Alcotest.test_case "send charges kernel" `Quick test_stack_send_charges_kernel_time;
        Alcotest.test_case "backlog and drain" `Quick test_stack_backlog_and_drain;
        Alcotest.test_case "rx path" `Quick test_stack_rx_path;
      ] );
    ( "guestos.bridge",
      [
        Alcotest.test_case "routing" `Quick test_bridge_routing;
        Alcotest.test_case "learning" `Quick test_bridge_learns_from_route;
      ] );
    ( "guestos.xchan",
      [
        Alcotest.test_case "capacity" `Quick test_xchan_capacity;
        Alcotest.test_case "completions" `Quick test_xchan_completions;
        Alcotest.test_case "returned pages" `Quick test_xchan_returned_pages;
      ] );
    ( "guestos.native_driver",
      [
        Alcotest.test_case "transmits" `Quick test_native_driver_transmits;
        Alcotest.test_case "receives" `Quick test_native_driver_receives;
        Alcotest.test_case "ring wraps" `Quick test_native_driver_ring_wraps;
        Alcotest.test_case "materialized integrity" `Quick
          test_native_driver_materialized_integrity;
        Alcotest.test_case "scatter/gather" `Quick test_native_driver_scatter_gather;
      ] );
    ( "guestos.paravirtual",
      [
        Alcotest.test_case "guest transmit" `Quick test_pv_guest_transmit;
        Alcotest.test_case "guest receive" `Quick test_pv_guest_receive;
        Alcotest.test_case "page exchange conserves" `Quick
          test_pv_page_exchange_conserves_pools;
        Alcotest.test_case "inter-guest traffic" `Quick test_pv_inter_guest_traffic;
        Alcotest.test_case "pool exhaustion backpressure" `Quick
          test_netfront_pool_exhaustion_backpressure;
        Alcotest.test_case "materialized integrity" `Quick test_pv_materialized_integrity;
      ] );
  ]
