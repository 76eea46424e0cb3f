type t = {
  engine : Sim.Engine.t;
  profile : Host.Profile.t;
  xen : Xen.Hypervisor.t;
  grant_table : Xen.Grant_table.t;
  metrics : Sim.Metrics.t;
  driver_dom : Xen.Domain.t option;
  guest_doms : Xen.Domain.t list;
  conns_tx : Workload.Connection.t list;
  conns_rx : Workload.Connection.t list;
  peers : Peer.t list;
  cdna_hyp : Cdna.Hyp.t option;
  cdna_handles : Cdna.Hyp.ctx_handle list;
  netback : Guestos.Netback.t option;
  start : unit -> unit;
}

let peer_mac i = Ethernet.Mac_addr.make (0x100000 + i)
let native_nic_mac i = Ethernet.Mac_addr.make (0x200000 + i)
let xen_guest_mac g = Ethernet.Mac_addr.make (0x300000 + g)
let cdna_guest_mac ~guest ~nic = Ethernet.Mac_addr.make (0x400000 + (guest * 64) + nic)

(* Mutable builder state shared by the per-system assembly code. *)
type builder = {
  cfg : Config.t;
  cm : Cost_model.t;
  b_engine : Sim.Engine.t;
  b_cpu : Host.Cpu.t;
  b_mem : Memory.Phys_mem.t;
  b_xen : Xen.Hypervisor.t;
  b_gnt : Xen.Grant_table.t;
  b_metrics : Sim.Metrics.t;
  dma : Bus.Dma_engine.t;
  links : Ethernet.Link.t array;
  mutable next_conn_id : int;
  mutable tx_conns : Workload.Connection.t list;
  mutable rx_conns : Workload.Connection.t list;
  mutable peers_rev : Peer.t list;
  rng : Sim.Rng.t;
  (* conn id -> peer, for routing guest acks back *)
  ack_peer : Peer.t Sim.Int_tbl.t;
}

let fresh_conn_id b =
  let id = b.next_conn_id in
  b.next_conn_id <- id + 1;
  id

(* Reverse-path latency for out-of-band acknowledgements (guest receive
   role): roughly a wire-and-turnaround delay. *)
let ack_wire_delay = Sim.Time.us 20

(* Window-limited connections between each guest and each NIC's peer. *)
let conns_per_pair = 2

(* Create the connections between one guest stack and one peer, register
   them on both ends, and hand them to the benchmark program. *)
let wire_stream b ~bench ~stack ~peer ~guest_mac =
  let cfg = b.cfg in
  let tx = ref [] and rx = ref [] in
  for _ = 1 to conns_per_pair do
    if Workload.Pattern.guest_transmits cfg.Config.pattern then begin
      let conn =
        Workload.Connection.create ~id:(fresh_conn_id b)
          ~window:cfg.Config.window ~payload_len:cfg.Config.payload
          ~src:guest_mac ~dst:(Peer.mac peer)
      in
      Peer.add_sink peer conn ~credit:(fun n ->
          Workload.Bench_program.on_credit bench conn n);
      tx := conn :: !tx;
      b.tx_conns <- conn :: b.tx_conns
    end;
    if Workload.Pattern.guest_receives cfg.Config.pattern then begin
      let conn =
        Workload.Connection.create ~id:(fresh_conn_id b)
          ~window:cfg.Config.window ~payload_len:cfg.Config.payload
          ~src:(Peer.mac peer) ~dst:guest_mac
      in
      Peer.add_source peer conn;
      Sim.Int_tbl.replace b.ack_peer (Workload.Connection.id conn) peer;
      rx := conn :: !rx;
      b.rx_conns <- conn :: b.rx_conns
    end
  done;
  Workload.Bench_program.add_stream bench ~stack ~tx:!tx ~rx:!rx

let make_bench b ~dom =
  let post_user ~cost fn = Xen.Hypervisor.user_work b.b_xen dom ~cost fn in
  let ack conn n =
    match Sim.Int_tbl.find_opt b.ack_peer (Workload.Connection.id conn) with
    | Some peer ->
        Sim.Engine.schedule b.b_engine ~delay:ack_wire_delay (fun () ->
            Peer.on_ack peer conn n)
    | None -> ()
  in
  Workload.Bench_program.create b.b_engine
    ~gso_segments:b.cfg.Config.gso_segments ~post_user
    ~costs:b.cm.Cost_model.guest_os ~ack ()

let nic_config b base =
  {
    base with
    Nic.Nic_config.intr_min_gap = b.cm.Cost_model.intr_min_gap;
    materialize_payloads = b.cfg.Config.materialize;
  }

(* The experiment peers do not use 802.3x pause: like the paper's
   testbed, loss and TCP-style retransmission govern overload. The
   uncongested hook restarts a sender that idled while the NIC was backed
   up. *)
let make_peer b ~nic_idx ~set_uncongested_hook =
  let peer =
    Peer.create b.b_engine ~link:b.links.(nic_idx) ~mac:(peer_mac nic_idx)
      ~rng:(Sim.Rng.split b.rng) ~materialize:b.cfg.Config.materialize ()
  in
  set_uncongested_hook (fun () -> Peer.kick peer);
  b.peers_rev <- peer :: b.peers_rev;
  peer

(* Conventional NIC [i] (Intel or RiceNIC, per the config) for the native
   and Xen assemblies: created on link [i], enabled at [mac], its metrics
   registered. Returns its uncongested-hook setter and the driver's view
   of it. *)
let conventional_nic b ~i ~irq ~mac =
  let base =
    match b.cfg.Config.nic with
    | Config.Intel -> Nic.Nic_config.intel
    | Config.Ricenic -> Nic.Nic_config.ricenic
  in
  let nic =
    Nic.Conventional.create b.b_engine ~mem:b.b_mem ~dma:b.dma
      ~config:(nic_config b base) ~irq ~dma_context:(i * 64)
  in
  let dp = Nic.Conventional.dp nic in
  Nic.Dp.attach_link dp b.links.(i) ~side:Ethernet.Link.A;
  Nic.Conventional.enable nic ~mac;
  Nic.Conventional.register_metrics nic b.b_metrics
    ~labels:[ ("nic", Printf.sprintf "nic%d" i) ];
  (Nic.Dp.set_uncongested_hook dp, Nic.Conventional.driver_if nic)

(* ---------- Native (bare-metal) assembly ---------- *)

let build_native b =
  let cfg = b.cfg in
  let dom =
    Xen.Hypervisor.create_domain b.b_xen ~name:"native" ~kind:Xen.Domain.Native
      ~weight:256 ~mem_pages:(16384 + (cfg.Config.nics * 2048))
  in
  let post_kernel ~cost fn = Xen.Hypervisor.kernel_work b.b_xen dom ~cost fn in
  let bench = make_bench b ~dom in
  let irqs =
    Array.init cfg.Config.nics (fun _ -> Bus.Irq.create ())
  in
  (* No hypervisor counts bare-metal interrupts: the NIC lines' own
     counts are the physical-interrupt series. *)
  Sim.Metrics.gauge b.b_metrics "native.phys_irqs" (fun () ->
      Array.fold_left (fun acc irq -> acc + Bus.Irq.count irq) 0 irqs);
  for i = 0 to cfg.Config.nics - 1 do
    let irq = irqs.(i) in
    let mac = native_nic_mac i in
    let set_hook, hw = conventional_nic b ~i ~irq ~mac in
    let driver =
      Guestos.Nic_driver.create ~mem:b.b_mem ~post_kernel
        ~costs:b.cm.Cost_model.guest_os ~hw ~mac
        ~alloc_pages:(fun n -> Xen.Hypervisor.alloc_pages b.b_xen dom n)
        ~materialize:cfg.Config.materialize ~backend:Guestos.Nic_driver.Ring ()
    in
    (* Bare metal: the interrupt line goes straight into the OS. *)
    Bus.Irq.set_handler irq (fun () ->
        Host.Cpu.post b.b_cpu (Xen.Domain.entity dom)
          ~category:(Xen.Domain.kernel dom) ~cost:b.cm.Cost_model.native_isr
          (fun () -> Guestos.Nic_driver.handle_interrupt driver));
    let stack =
      Guestos.Net_stack.create ~post_kernel ~costs:b.cm.Cost_model.guest_os
        ~netdev:(Guestos.Nic_driver.netdev driver)
    in
    let peer = make_peer b ~nic_idx:i ~set_uncongested_hook:set_hook in
    wire_stream b ~bench ~stack ~peer ~guest_mac:mac
  done;
  (dom, [ bench ])

(* ---------- Xen software I/O virtualization assembly ---------- *)

let build_xen b =
  let cfg = b.cfg in
  let driver_dom =
    Xen.Hypervisor.create_domain b.b_xen ~name:"driver" ~kind:Xen.Domain.Driver
      ~weight:cfg.Config.driver_weight
      ~mem_pages:(32768 + (cfg.Config.nics * 2048))
  in
  let post_driver ~cost fn =
    Xen.Hypervisor.kernel_work b.b_xen driver_dom ~cost fn
  in
  let netback =
    Guestos.Netback.create ~hyp:b.b_xen ~gnt:b.b_gnt ~dom:driver_dom
      ~costs:b.cm.Cost_model.netback ~pool_pages:8192
      ~materialize:cfg.Config.materialize ()
  in
  (* Physical NICs, owned by the driver domain. *)
  let nic_peers =
    Array.init cfg.Config.nics (fun i ->
        let irq = Bus.Irq.create () in
        let mac = native_nic_mac i in
        let set_hook, hw = conventional_nic b ~i ~irq ~mac in
        let driver =
          Guestos.Nic_driver.create ~mem:b.b_mem ~post_kernel:post_driver
            ~costs:b.cm.Cost_model.driver_os ~hw ~mac
            ~alloc_pages:(fun n ->
              Xen.Hypervisor.alloc_pages b.b_xen driver_dom n)
            ~materialize:cfg.Config.materialize
            ~backend:Guestos.Nic_driver.Ring ()
        in
        (* The hypervisor captures the NIC interrupt and forwards it to the
           driver domain as a virtual interrupt. *)
        let chan =
          Xen.Event_channel.create b.b_xen ~target:driver_dom
            ~isr_cost:b.cm.Cost_model.nic_evtchn_isr ~handler:(fun () ->
              Guestos.Nic_driver.handle_interrupt driver)
        in
        Xen.Hypervisor.route_irq b.b_xen irq (fun () ->
            Xen.Event_channel.notify_from_hypervisor chan);
        Guestos.Netback.add_physical netback
          (Guestos.Nic_driver.netdev driver)
          ~remote_macs:[ peer_mac i ];
        make_peer b ~nic_idx:i ~set_uncongested_hook:set_hook)
  in
  (* Guests with paravirtualized interfaces. *)
  let guests = ref [] and benches = ref [] in
  for g = 0 to cfg.Config.guests - 1 do
    let dom =
      Xen.Hypervisor.create_domain b.b_xen
        ~name:(Printf.sprintf "guest%d" g)
        ~kind:Xen.Domain.Guest ~weight:256 ~mem_pages:8192
    in
    let mac = xen_guest_mac g in
    let xchan = Guestos.Xchan.create ~capacity:256 in
    let chan_to_driver =
      Xen.Event_channel.create b.b_xen ~target:driver_dom
        ~isr_cost:b.cm.Cost_model.nic_evtchn_isr ~handler:(fun () ->
          Guestos.Netback.schedule netback)
    in
    let netfront =
      Guestos.Netfront.create ~hyp:b.b_xen ~gnt:b.b_gnt ~dom
        ~costs:b.cm.Cost_model.guest_os ~xchan ~mac
        ~notify_backend:(fun () ->
          Xen.Event_channel.notify chan_to_driver ~from:dom)
        ~materialize:cfg.Config.materialize ()
    in
    let chan_to_guest =
      Xen.Event_channel.create b.b_xen ~target:dom
        ~isr_cost:b.cm.Cost_model.evtchn_isr ~handler:(fun () ->
          Guestos.Netfront.handle_event netfront)
    in
    ignore
      (Guestos.Netback.add_interface netback ~guest_dom:dom ~guest_mac:mac
         ~xchan
         ~notify_frontend:(fun () ->
           Xen.Event_channel.notify chan_to_guest ~from:driver_dom));
    Guestos.Netfront.register_metrics netfront b.b_metrics;
    let post_kernel ~cost fn = Xen.Hypervisor.kernel_work b.b_xen dom ~cost fn in
    let stack =
      Guestos.Net_stack.create ~post_kernel ~costs:b.cm.Cost_model.guest_os
        ~netdev:(Guestos.Netfront.netdev netfront)
    in
    let bench = make_bench b ~dom in
    Array.iter
      (fun peer -> wire_stream b ~bench ~stack ~peer ~guest_mac:mac)
      nic_peers;
    guests := dom :: !guests;
    benches := bench :: !benches
  done;
  (driver_dom, netback, List.rev !guests, List.rev !benches)

(* ---------- CDNA assembly ---------- *)

let build_cdna b =
  let cfg = b.cfg in
  (* The driver domain still exists for control functions and other
     devices (paper section 3), but does no network work here. *)
  let driver_dom =
    Xen.Hypervisor.create_domain b.b_xen ~name:"driver" ~kind:Xen.Domain.Driver
      ~weight:256 ~mem_pages:8192
  in
  (* More guests than hardware contexts per NIC: let the hypervisor page
     contexts in and out instead of failing assignment. Gated so the
     at-capacity configurations keep their exact historical behaviour
     (including the metric set). *)
  let cdna_hyp =
    Cdna.Hyp.create b.b_xen ~costs:b.cm.Cost_model.cdna
      ~protection:cfg.Config.protection
      ~paging:(cfg.Config.guests > Cdna.Cnic.num_contexts)
      ()
  in
  let cdna_cfg = nic_config b Cdna.Cnic.default_config in
  let nics =
    Array.init cfg.Config.nics (fun i ->
        let irq = Bus.Irq.create () in
        let intr_page =
          match Xen.Hypervisor.alloc_hyp_pages b.b_xen 1 with
          | [ p ] -> p
          | _ -> assert false
        in
        let nic =
          Cdna.Cnic.create b.b_engine ~mem:b.b_mem ~dma:b.dma ~config:cdna_cfg
            ~irq ~dma_context_base:(i * 64)
            ~intr_base:(Memory.Addr.base_of_pfn intr_page)
            ()
        in
        let dp = Cdna.Cnic.dp nic in
        Nic.Dp.attach_link dp b.links.(i) ~side:Ethernet.Link.A;
        Cdna.Hyp.add_nic cdna_hyp nic;
        Cdna.Cnic.register_metrics nic b.b_metrics
          ~labels:[ ("nic", Printf.sprintf "cnic%d" i) ];
        let peer =
          make_peer b ~nic_idx:i
            ~set_uncongested_hook:(Nic.Dp.set_uncongested_hook dp)
        in
        (nic, peer))
  in
  let guests = ref [] and benches = ref [] and handles = ref [] in
  for g = 0 to cfg.Config.guests - 1 do
    let dom =
      Xen.Hypervisor.create_domain b.b_xen
        ~name:(Printf.sprintf "guest%d" g)
        ~kind:Xen.Domain.Guest ~weight:256 ~mem_pages:8192
    in
    let post_kernel ~cost fn = Xen.Hypervisor.kernel_work b.b_xen dom ~cost fn in
    let bench = make_bench b ~dom in
    Array.iteri
      (fun i (nic, peer) ->
        let mac = cdna_guest_mac ~guest:g ~nic:i in
        match
          Cdna.Hyp.assign_context cdna_hyp ~nic ~guest:dom ~mac
            ~isr_cost:b.cm.Cost_model.evtchn_isr
        with
        | Error `No_free_context ->
            invalid_arg "Testbed: out of CDNA contexts"
        | Ok handle ->
            handles := handle :: !handles;
            let driver =
              Cdna.Driver.create ~hyp:cdna_hyp ~handle
                ~costs:b.cm.Cost_model.guest_os
                ~materialize:cfg.Config.materialize ()
            in
            let stack =
              Guestos.Net_stack.create ~post_kernel
                ~costs:b.cm.Cost_model.guest_os
                ~netdev:(Guestos.Nic_driver.netdev (Cdna.Driver.core driver))
            in
            wire_stream b ~bench ~stack ~peer ~guest_mac:mac)
      nics;
    guests := dom :: !guests;
    benches := bench :: !benches
  done;
  (driver_dom, cdna_hyp, List.rev !handles, List.rev !guests, List.rev !benches, nics)

(* ---------- Entry point ---------- *)

let build (cfg : Config.t) =
  let cm = Cost_model.for_config cfg.Config.system cfg.Config.nic in
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu =
    Host.Cpu.create engine ~cpus:cfg.Config.cpus ?slice:cfg.Config.slice
      ~migration_cost:cm.Cost_model.cpu_migration ~profile ()
  in
  let total_pages = 65536 + (cfg.Config.guests * 10240) + (cfg.Config.nics * 4096) in
  let mem = Memory.Phys_mem.create ~total_pages () in
  let xen = Xen.Hypervisor.create engine ~cpu ~mem ~costs:cm.Cost_model.xen () in
  let gnt = Xen.Grant_table.create xen in
  let metrics = Sim.Metrics.create () in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let links =
    Array.init cfg.Config.nics (fun _ -> Ethernet.Link.create engine ())
  in
  let b =
    {
      cfg;
      cm;
      b_engine = engine;
      b_cpu = cpu;
      b_mem = mem;
      b_xen = xen;
      b_gnt = gnt;
      b_metrics = metrics;
      dma;
      links;
      rng = Sim.Rng.create ~seed:cfg.Config.seed;
      next_conn_id = 0;
      tx_conns = [];
      rx_conns = [];
      peers_rev = [];
      ack_peer = Sim.Int_tbl.create 64;
    }
  in
  let driver_dom, guest_doms, benches, cdna_hyp, cdna_handles, netback =
    match cfg.Config.system with
    | Config.Native ->
        let dom, benches = build_native b in
        (None, [ dom ], benches, None, [], None)
    | Config.Xen_sw ->
        let driver_dom, netback, guests, benches = build_xen b in
        (Some driver_dom, guests, benches, None, [], Some netback)
    | Config.Cdna_sys ->
        let driver_dom, cdna_hyp, handles, guests, benches, _nics =
          build_cdna b
        in
        (Some driver_dom, guests, benches, Some cdna_hyp, handles, None)
  in
  (* Registered after assembly so every scheduler entity and domain
     exists; NIC and netfront gauges were registered as they were built. *)
  Sim.Engine.register_metrics engine metrics;
  Host.Cpu.register_metrics cpu metrics;
  Bus.Dma_engine.register_metrics dma metrics;
  Xen.Hypervisor.register_metrics xen metrics;
  (match cdna_hyp with
  | Some h -> Cdna.Hyp.register_metrics h metrics
  | None -> ());
  (match netback with
  | Some nb -> Guestos.Netback.register_metrics nb metrics
  | None -> ());
  let peers = List.rev b.peers_rev in
  let start () =
    List.iter Peer.start peers;
    List.iter Workload.Bench_program.start benches
  in
  {
    engine;
    profile;
    xen;
    grant_table = gnt;
    metrics;
    driver_dom;
    guest_doms;
    conns_tx = List.rev b.tx_conns;
    conns_rx = List.rev b.rx_conns;
    peers;
    cdna_hyp;
    cdna_handles;
    netback;
    start;
  }
