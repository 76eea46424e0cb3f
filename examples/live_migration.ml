(* Live context migration.

   The paper notes that "the hypervisor can also revoke a context at any
   time" (section 3.1). Composing revocation with reassignment gives
   context *migration*: moving a guest's direct network access from one
   CDNA NIC to another while traffic is flowing — what a management layer
   would do to drain a NIC for maintenance or rebalance load.

   This example keeps a guest receiving a go-back-N/AIMD stream, migrates
   its context between two NICs mid-flight, and shows the transport
   recovering: in-flight packets on the old NIC are shut down with the
   context, the peer times out and retransmits, and delivery resumes on
   the new NIC with no corruption or protection faults.

   Run with: dune exec examples/live_migration.exe *)

(* The calibrated costs of a CDNA testbed (CDNA runs on the RiceNIC). *)
let costs =
  Experiments.Cost_model.for_config Experiments.Config.Cdna_sys
    Experiments.Config.Ricenic

let () =
  print_endline "Live CDNA context migration under receive load";
  print_endline "----------------------------------------------";
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let mem = Memory.Phys_mem.create ~total_pages:16384 () in
  let xen = Xen.Hypervisor.create engine ~cpu ~mem ~costs:costs.xen () in
  let guest =
    Xen.Hypervisor.create_domain xen ~name:"guest" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:4096
  in
  let cdna = Cdna.Hyp.create xen ~costs:costs.cdna ~paging:false () in
  let dma = Bus.Dma_engine.create engine ~mem () in
  let make_nic idx =
    let irq = Bus.Irq.create () in
    let intr_page = List.hd (Xen.Hypervisor.alloc_hyp_pages xen 1) in
    let nic =
      Cdna.Cnic.create engine ~mem ~dma ~irq ~dma_context_base:(idx * 64)
        ~intr_base:(Memory.Addr.base_of_pfn intr_page)
        ()
    in
    Cdna.Hyp.add_nic cdna nic;
    let link = Ethernet.Link.create engine () in
    Nic.Dp.attach_link (Cdna.Cnic.dp nic) link ~side:Ethernet.Link.A;
    (nic, link)
  in
  let nic_a, link_a = make_nic 0 in
  let nic_b, link_b = make_nic 1 in
  let guest_mac = Ethernet.Mac_addr.make 1 in

  (* Context + driver + stack on NIC A. *)
  let handle =
    match
      Cdna.Hyp.assign_context cdna ~nic:nic_a ~guest ~mac:guest_mac
        ~isr_cost:(Sim.Time.us 1)
    with
    | Ok h -> h
    | Error `No_free_context -> failwith "no context"
  in
  let driver =
    Cdna.Driver.create ~hyp:cdna ~handle ~costs:costs.guest_os ()
  in
  let post_kernel ~cost fn = Xen.Hypervisor.kernel_work xen guest ~cost fn in
  let stack =
    Guestos.Net_stack.create ~post_kernel ~costs:costs.guest_os
      ~netdev:(Guestos.Nic_driver.netdev (Cdna.Driver.core driver))
  in

  (* One receive stream per NIC's peer; only the peer on the NIC that
     currently hosts the context can reach the guest. *)
  let conn =
    Workload.Connection.create ~id:7 ~window:32 ~payload_len:1448
      ~src:(Ethernet.Mac_addr.make 200)
      ~dst:guest_mac
  in
  let peer_a =
    Experiments.Peer.create engine ~link:link_a
      ~mac:(Ethernet.Mac_addr.make 200)
      ()
  in
  let peer_b =
    Experiments.Peer.create engine ~link:link_b
      ~mac:(Ethernet.Mac_addr.make 200)
      ()
  in
  (* The peer "moves with the cable": before migration it feeds link A,
     afterwards link B (think of the switch re-learning the MAC). *)
  Experiments.Peer.add_source peer_a conn;
  let active_peer = ref peer_a in
  let bench =
    Workload.Bench_program.create engine
      ~post_user:(fun ~cost fn -> Xen.Hypervisor.user_work xen guest ~cost fn)
      ~costs:costs.guest_os
      ~ack:(fun c n ->
        Sim.Engine.schedule engine ~delay:(Sim.Time.us 20) (fun () ->
            Experiments.Peer.on_ack !active_peer c n))
      ()
  in
  Workload.Bench_program.add_stream bench ~stack ~tx:[] ~rx:[ conn ];

  let report label =
    Printf.printf "%-28s received=%5d  rejected=%3d  faults=%d\n" label
      (Workload.Connection.received conn)
      (Workload.Connection.rejected conn)
      (List.length (Cdna.Hyp.faults cdna))
  in
  Experiments.Peer.start peer_a;
  Sim.Engine.run engine ~until:(Sim.Time.ms 30);
  report "after 30 ms on NIC A:";
  let before_migration = Workload.Connection.received conn in

  (* Migrate. *)
  let handle2 =
    match Cdna.Hyp.migrate cdna handle ~to_nic:nic_b with
    | Ok h -> h
    | Error `No_free_context -> failwith "no context on NIC B"
  in
  Cdna.Driver.rebind driver handle2;
  (* Re-point the traffic source at the new NIC, carrying the go-back-N
     window position across so it retransmits exactly what died with the
     old context. *)
  let resume_from =
    match Experiments.Peer.source_position peer_a conn with
    | Some (base, _next) -> base
    | None -> 0
  in
  Experiments.Peer.add_source peer_b conn ~from_seq:resume_from;
  active_peer := peer_b;
  Experiments.Peer.start peer_b;
  Printf.printf "\n>>> migrated context %d (NIC A) -> context %d (NIC B)\n\n"
    (Cdna.Hyp.ctx_id handle) (Cdna.Hyp.ctx_id handle2);

  Sim.Engine.run engine ~until:(Sim.Time.ms 60);
  report "after 30 ms more on NIC B:";
  let after_migration = Workload.Connection.received conn in
  Printf.printf "retransmissions during recovery: %d\n"
    (Experiments.Peer.retransmissions peer_b);
  if after_migration > before_migration + 100 then
    print_endline
      "\nDelivery resumed on the new NIC: the old context's in-flight\n\
       packets were shut down with the revocation, the transport timed\n\
       out and retransmitted, and in-order delivery continued — no\n\
       protection faults, no corruption, no hypervisor involvement in the\n\
       datapath before or after."
  else begin
    print_endline "\nUNEXPECTED: traffic did not resume";
    exit 1
  end
