module FI = Sim.Fault_inject
module H = Cdna.Hyp
module Frame = Ethernet.Frame
module Mac = Ethernet.Mac_addr
module Nd = Guestos.Nic_driver

(* The calibrated costs of a CDNA testbed: CDNA runs on the RiceNIC. *)
let costs = Cost_model.for_config Config.Cdna_sys Config.Ricenic

type fault_class =
  | Out_of_sequence
  | Foreign_page
  | Over_length
  | Dma_access
  | Link_drop
  | Link_corrupt

let all_classes =
  [ Out_of_sequence; Foreign_page; Over_length; Dma_access; Link_drop; Link_corrupt ]

let class_name = function
  | Out_of_sequence -> "out-of-sequence"
  | Foreign_page -> "foreign-page"
  | Over_length -> "over-length"
  | Dma_access -> "dma-access"
  | Link_drop -> "link-drop"
  | Link_corrupt -> "link-corrupt"

let mode_name = function
  | Cdna.Cdna_costs.Full -> "Full"
  | Cdna.Cdna_costs.Iommu -> "Iommu"
  | Cdna.Cdna_costs.Disabled -> "Disabled"

(* Which protection mechanism is on the hook for each cell of the sweep.
   Static knowledge: the scenario construction (below) decides which
   attack channel is even available in each mode. *)
let mechanism mode fault =
  match (mode, fault) with
  | _, Link_drop -> "receiver gap accounting"
  | _, Link_corrupt -> "sink integrity check"
  | _, Dma_access -> "bus fault + reassign"
  | _, Out_of_sequence -> "NIC seqno check"
  | Cdna.Cdna_costs.Full, (Foreign_page | Over_length) -> "hypercall validation"
  | Cdna.Cdna_costs.Iommu, (Foreign_page | Over_length) -> "IOMMU"
  | Cdna.Cdna_costs.Disabled, (Foreign_page | Over_length) -> "(none)"

type row = {
  r_mode : Cdna.Cdna_costs.protection;
  r_fault : fault_class;
  r_mechanism : string;
  r_injected : int;
  r_detected : int;
  r_leaked : int;
  r_contained : bool;
  r_victim : (int * int) option;  (* delivered/baseline for the targeted benign flow *)
  r_others : int * int;  (* delivered/baseline for untargeted benign flows *)
  r_recoveries : int;
}

(* ---------- The world: one CDNA NIC, two benign guests, one rogue ---------- *)

let mac_a = Mac.make 1
let mac_b = Mac.make 2
let mac_att = Mac.make 3
let us = Sim.Time.us
let ms = Sim.Time.ms

type sink = {
  mutable s_a : int;  (* intact flow-a frames *)
  mutable s_b : int;
  mutable s_att : int;  (* anything bearing the rogue's MAC *)
  mutable s_corrupt : int;  (* benign frames whose payload fails the check *)
}

type world = {
  engine : Sim.Engine.t;
  mem : Memory.Phys_mem.t;
  xen : Xen.Hypervisor.t;
  cdna : H.t;
  nic : Cdna.Cnic.t;
  dma : Bus.Dma_engine.t;
  link : Ethernet.Link.t;
  guest_a : Xen.Domain.t;
  guest_b : Xen.Domain.t;
  rogue : Xen.Domain.t;
  h_a : H.ctx_handle;
  h_att : H.ctx_handle;
  d_a : Cdna.Driver.t;
  d_b : Cdna.Driver.t;
  stack_a : Guestos.Net_stack.t;
  stack_b : Guestos.Net_stack.t;
  sink : sink;
}

let build ~mode () =
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let mem = Memory.Phys_mem.create ~total_pages:8192 () in
  let xen = Xen.Hypervisor.create engine ~cpu ~mem ~costs:costs.Cost_model.xen () in
  let dom name = Xen.Hypervisor.create_domain xen ~name ~kind:Xen.Domain.Guest ~weight:256 in
  let guest_a = dom "benign-a" ~mem_pages:1024 in
  let guest_b = dom "benign-b" ~mem_pages:1024 in
  let rogue = dom "rogue" ~mem_pages:256 in
  let cdna = H.create xen ~costs:costs.cdna ~protection:mode ~paging:false () in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let irq = Bus.Irq.create () in
  let intr_page = List.hd (Xen.Hypervisor.alloc_hyp_pages xen 1) in
  let nic =
    Cdna.Cnic.create engine ~mem ~dma ~irq ~dma_context_base:0
      ~intr_base:(Memory.Addr.base_of_pfn intr_page)
      ()
  in
  H.add_nic cdna nic;
  let link = Ethernet.Link.create engine () in
  Nic.Dp.attach_link (Cdna.Cnic.dp nic) link ~side:Ethernet.Link.A;
  let assign guest mac =
    match H.assign_context cdna ~nic ~guest ~mac ~isr_cost:(us 1) with
    | Ok h -> h
    | Error `No_free_context -> failwith "protection_coverage: no free context"
  in
  let h_a = assign guest_a mac_a in
  let h_b = assign guest_b mac_b in
  let h_att = assign rogue mac_att in
  let driver h = Cdna.Driver.create ~hyp:cdna ~handle:h ~costs:costs.guest_os () in
  let d_a = driver h_a and d_b = driver h_b in
  Cdna.Driver.enable_auto_recovery d_a;
  Cdna.Driver.enable_auto_recovery d_b;
  let stack dom d =
    Guestos.Net_stack.create
      ~post_kernel:(fun ~cost fn -> Xen.Hypervisor.kernel_work xen dom ~cost fn)
      ~costs:costs.guest_os
      ~netdev:(Nd.netdev (Cdna.Driver.core d))
  in
  let stack_a = stack guest_a d_a and stack_b = stack guest_b d_b in
  let sink = { s_a = 0; s_b = 0; s_att = 0; s_corrupt = 0 } in
  Ethernet.Link.attach link Ethernet.Link.B (fun f ->
      if Mac.equal f.Frame.src mac_att then sink.s_att <- sink.s_att + 1
      else if
        (* Benign flows stamp payload_seed = seq, so the sink can vet the
           payload without materialized bytes. *)
        f.Frame.payload_seed <> f.Frame.seq
      then sink.s_corrupt <- sink.s_corrupt + 1
      else if Mac.equal f.Frame.src mac_a then sink.s_a <- sink.s_a + 1
      else if Mac.equal f.Frame.src mac_b then sink.s_b <- sink.s_b + 1);
  {
    engine; mem; xen; cdna; nic; dma; link; guest_a; guest_b; rogue;
    h_a; h_att; d_a; d_b; stack_a; stack_b; sink;
  }

(* Both benign guests transmit [frames] 1000-byte frames in batches of 5
   every 250 us: ~160 Mb/s aggregate, far below the 1 Gb/s link, so the
   fault-free run delivers every frame and the containment comparison is
   exact rather than congestion-noisy. *)
let batch = 5
let interval = us 250
let traffic_start = ms 5

let start_traffic w ~frames =
  let send stack src i =
    Guestos.Net_stack.send stack
      (List.init batch (fun j ->
           let seq = (i * batch) + j in
           Frame.make ~src:(Mac.make src) ~dst:(Mac.make 99)
             ~kind:Frame.Data ~flow:src ~seq ~payload_len:1000
             ~payload_seed:seq ()))
  in
  let n_batches = (frames + batch - 1) / batch in
  for i = 0 to n_batches - 1 do
    Sim.Engine.schedule_at w.engine
      (Sim.Time.add traffic_start (Sim.Time.mul_int interval i))
      (fun () ->
        send w.stack_a 1 i;
        send w.stack_b 2 i)
  done;
  Sim.Time.add (Sim.Time.add traffic_start (Sim.Time.mul_int interval n_batches))
    (ms 10)

(* ---------- Attack channels ---------- *)

let eop = Memory.Dma_desc.flag_end_of_packet

let attack_frame ~seq =
  Frame.make ~src:mac_att ~dst:(Mac.make 99) ~kind:Frame.Data ~flow:3 ~seq
    ~payload_len:1000 ~payload_seed:seq ()

let alloc_rogue_page w =
  List.hd (Xen.Hypervisor.alloc_pages w.xen w.rogue 1)

let setup_rogue_tx_ring w k =
  let tx = alloc_rogue_page w in
  let status = alloc_rogue_page w in
  H.register_ring w.cdna w.h_att H.Tx ~base:(Memory.Addr.base_of_pfn tx)
    ~slots:16 (fun _ ->
      H.register_status w.cdna w.h_att ~addr:(Memory.Addr.base_of_pfn status)
        (fun _ -> k ~ring_base:(Memory.Addr.base_of_pfn tx)))

let over_length_len = (4 * Memory.Addr.page_size) + 512

(* Full protection confines the rogue to the hypercall + doorbell channel
   (it cannot write hypervisor-owned rings); the attack is a batch of
   forged enqueue attempts, which the hypervisor must reject. *)
let attack_full w kind ~attempts ~injected ~rejected =
  setup_rogue_tx_ring w (fun ~ring_base:_ ->
      match kind with
      | Foreign_page | Over_length ->
          let desc () =
            match kind with
            | Foreign_page ->
                let foreign = List.hd (Xen.Domain.pages w.guest_a) in
                {
                  Memory.Dma_desc.addr = Memory.Addr.base_of_pfn foreign;
                  len = 1000;
                  flags = eop;
                  seqno = 0;
                }
            | _ ->
                (* From the rogue's highest page so the span runs off the
                   end of everything it owns. *)
                let last =
                  List.fold_left max 0 (Xen.Domain.pages w.rogue)
                in
                {
                  Memory.Dma_desc.addr = Memory.Addr.base_of_pfn last;
                  len = over_length_len;
                  flags = eop;
                  seqno = 0;
                }
          in
          for _ = 1 to attempts do
            incr injected;
            H.enqueue w.cdna w.h_att H.Tx [ desc () ] (function
              | Error (`Not_owner _) -> incr rejected
              | Error _ -> incr rejected
              | Ok _ -> ())
          done
      | _ ->
          (* Out-of-sequence: a doorbell past the last hypervisor-stamped
             descriptor makes the NIC fetch ring slots the hypervisor
             never sequence-stamped. *)
          incr injected;
          let hw = H.driver_if w.h_att in
          hw.Nic.Driver_if.stage_tx_meta (attack_frame ~seq:0);
          hw.Nic.Driver_if.tx_doorbell 2)

(* Under Iommu the hypervisor still stamps rings via hypercall, but the
   guest owns (and can scribble on) its ring memory: enqueue one honest
   descriptor, then overwrite the stamped slot with a forged one before
   ringing the doorbell. Only the IOMMU (or the NIC's seqno check) stands
   between the forgery and the bus. *)
let attack_iommu w kind ~injected =
  setup_rogue_tx_ring w (fun ~ring_base ->
      let own = alloc_rogue_page w in
      let honest =
        { Memory.Dma_desc.addr = Memory.Addr.base_of_pfn own; len = 1000; flags = eop; seqno = 0 }
      in
      H.enqueue w.cdna w.h_att H.Tx [ honest ] (function
        | Error _ -> ()
        | Ok prod ->
            incr injected;
            let forged =
              match kind with
              | Foreign_page ->
                  let foreign = List.hd (Xen.Domain.pages w.guest_a) in
                  { honest with Memory.Dma_desc.addr = Memory.Addr.base_of_pfn foreign }
              | Over_length -> { honest with Memory.Dma_desc.len = over_length_len }
              | _ -> { honest with Memory.Dma_desc.seqno = 7 }
            in
            let hw = H.driver_if w.h_att in
            Memory.Desc_layout.write hw.Nic.Driver_if.desc_layout w.mem
              ~at:ring_base forged;
            hw.Nic.Driver_if.stage_tx_meta (attack_frame ~seq:0);
            hw.Nic.Driver_if.tx_doorbell prod))

(* With protection disabled the context behaves like a native NIC, so the
   rogue runs the guest driver with the ring back end, in malicious mode:
   every descriptor it writes (directly, no hypercall) is forged. *)
let attack_disabled w kind ~frames =
  let post_kernel ~cost fn = Xen.Hypervisor.kernel_work w.xen w.rogue ~cost fn in
  let d =
    Nd.create ~mem:w.mem ~post_kernel ~costs:costs.guest_os
      ~hw:(H.driver_if w.h_att) ~mac:mac_att
      ~alloc_pages:(Xen.Hypervisor.alloc_pages w.xen w.rogue)
      ~tx_slots:16 ~rx_slots:16 ~backend:Nd.Ring ()
  in
  H.set_event_handler w.h_att (fun () -> Nd.handle_interrupt d);
  Nd.set_malice d
    (Some
       (match kind with
       | Foreign_page -> Nd.Foreign_page (List.hd (Xen.Domain.pages w.guest_a))
       | Over_length -> Nd.Over_length
       | _ -> Nd.Out_of_sequence));
  let stack =
    Guestos.Net_stack.create ~post_kernel ~costs:costs.guest_os
      ~netdev:(Nd.netdev d)
  in
  Guestos.Net_stack.send stack (List.init frames (fun i -> attack_frame ~seq:i));
  d

(* ---------- One cell of the sweep ---------- *)

let faults_for w guest =
  List.length
    (List.filter
       (fun (dom, _) -> dom = Xen.Domain.id guest)
       (H.faults w.cdna))

let run_cell ~mode ~seed ~frames ~baseline fault =
  let w = build ~mode () in
  let fi = FI.create ~seed in
  let traffic_end = start_traffic w ~frames in
  let attack_at = Sim.Time.add traffic_start (ms 2) in
  let injected = ref 0 and rejected = ref 0 in
  let rogue = ref None in
  (match fault with
  | Dma_access ->
      (* One injected bus fault on benign guest A's context, mid-run; its
         driver must auto-recover onto a fresh context. *)
      FI.arm fi ~site:"dma.access"
        (FI.plan ~ctx:(H.ctx_id w.h_a, H.ctx_id w.h_a) (FI.Nth 40));
      Bus.Dma_engine.set_fault_injector w.dma
        (Some
           (fun ~context ~addr ~len ->
             ignore len;
             FI.fire fi ~site:"dma.access" ~ctx:context ~addr ()))
  | Link_drop | Link_corrupt ->
      FI.arm fi ~site:"link.tx" (FI.plan (FI.Probability 0.1));
      let verdict : Ethernet.Link.verdict =
        if fault = Link_drop then `Drop else `Corrupt
      in
      Ethernet.Link.set_tamper w.link
        (Some
           (fun f ->
             (* Target flow A only, so flow B doubles as the containment
                control. *)
             if
               Mac.equal f.Frame.src mac_a
               && FI.fire fi ~site:"link.tx" ()
             then verdict
             else `Pass))
  | Out_of_sequence | Foreign_page | Over_length ->
      Sim.Engine.schedule_at w.engine attack_at (fun () ->
          match mode with
          | Cdna.Cdna_costs.Full ->
              attack_full w fault ~attempts:8 ~injected ~rejected
          | Cdna.Cdna_costs.Iommu -> attack_iommu w fault ~injected
          | Cdna.Cdna_costs.Disabled ->
              rogue := Some (attack_disabled w fault ~frames:10)));
  Sim.Engine.run w.engine ~until:traffic_end;
  let base_a, base_b = baseline in
  let injected =
    match fault with
    | Dma_access -> Bus.Dma_engine.injected_faults w.dma
    | Link_drop | Link_corrupt -> FI.injected fi ~site:"link.tx"
    | _ -> (
        match !rogue with
        | Some d -> Nd.malicious_descs d
        | None -> !injected)
  in
  let detected =
    match fault with
    | Dma_access -> faults_for w w.guest_a
    | Link_drop -> frames - w.sink.s_a - w.sink.s_corrupt
    | Link_corrupt -> w.sink.s_corrupt
    | Foreign_page | Over_length when mode = Cdna.Cdna_costs.Full -> !rejected
    | _ -> faults_for w w.rogue
  in
  let leaked = w.sink.s_att in
  let victim, others =
    match fault with
    | Dma_access | Link_drop | Link_corrupt ->
        (Some (w.sink.s_a, base_a), (w.sink.s_b, base_b))
    | _ -> (None, (w.sink.s_a + w.sink.s_b, base_a + base_b))
  in
  let contained =
    let got, base = others in
    base > 0 && abs (got - base) * 100 <= base
  in
  {
    r_mode = mode;
    r_fault = fault;
    r_mechanism = mechanism mode fault;
    r_injected = injected;
    r_detected = detected;
    r_leaked = leaked;
    r_contained = contained;
    r_victim = victim;
    r_others = others;
    r_recoveries = Cdna.Driver.recoveries w.d_a + Cdna.Driver.recoveries w.d_b;
  }

let run_baseline ~mode ~frames =
  let w = build ~mode () in
  let traffic_end = start_traffic w ~frames in
  Sim.Engine.run w.engine ~until:traffic_end;
  (w.sink.s_a, w.sink.s_b)

let modes =
  [ Cdna.Cdna_costs.Full; Cdna.Cdna_costs.Iommu; Cdna.Cdna_costs.Disabled ]

let sweep ?(quick = false) ?(seed = 42) () =
  let frames = if quick then 60 else 200 in
  List.concat_map
    (fun mode ->
      let baseline = run_baseline ~mode ~frames in
      List.map
        (fun fault -> run_cell ~mode ~seed ~frames ~baseline fault)
        all_classes)
    modes

let print rows =
  print_endline
    "Protection coverage: injected faults x protection modes (paper sections 3.3, 5.3)";
  Report.print
    ~header:
      [ "Mode"; "Fault"; "Mechanism"; "Inj"; "Det"; "Leak"; "Contained";
        "Victim"; "Others"; "Recov" ]
    (List.map
       (fun r ->
         [
           mode_name r.r_mode;
           class_name r.r_fault;
           r.r_mechanism;
           string_of_int r.r_injected;
           string_of_int r.r_detected;
           string_of_int r.r_leaked;
           Report.verdict r.r_contained;
           (match r.r_victim with
           | Some (got, base) -> Report.ratio got base
           | None -> "-");
           (let got, base = r.r_others in
            Report.ratio got base);
           string_of_int r.r_recoveries;
         ])
       rows);
  print_endline
    "(Det = protection events: hypercall rejections, NIC/IOMMU faults, or\n\
    \ receiver-side integrity/gap detections. Leak = rogue-sourced frames\n\
    \ that reached the wire sink. Contained = untargeted guests' delivery\n\
    \ within 1% of the fault-free baseline.)"
