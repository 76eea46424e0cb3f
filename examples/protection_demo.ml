(* DMA memory protection in action (paper section 3.3).

   A malicious guest driver tries to use its CDNA context to read another
   domain's memory. With protection enabled the hypervisor and NIC stop
   every attempt; with protection disabled (the paper's Table 4
   configuration) the same attack exfiltrates the victim's bytes onto the
   wire — real bytes, through the simulated DMA engine.

   Run with: dune exec examples/protection_demo.exe *)

let failures = ref 0

let unexpected msg =
  incr failures;
  print_endline ("UNEXPECTED: " ^ msg)

let section title =
  Printf.printf "\n=== %s ===\n" title

(* Build a minimal machine: hypervisor, one CDNA NIC on a link, an
   attacker guest and a victim guest. Returns everything the scenarios
   poke at. *)
(* The calibrated costs of a CDNA testbed (CDNA runs on the RiceNIC). *)
let costs =
  Experiments.Cost_model.for_config Experiments.Config.Cdna_sys
    Experiments.Config.Ricenic

let build ~protection =
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let mem = Memory.Phys_mem.create ~total_pages:4096 () in
  let xen = Xen.Hypervisor.create engine ~cpu ~mem ~costs:costs.xen () in
  let attacker =
    Xen.Hypervisor.create_domain xen ~name:"attacker" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:64
  in
  let victim =
    Xen.Hypervisor.create_domain xen ~name:"victim" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:64
  in
  let cdna = Cdna.Hyp.create xen ~costs:costs.cdna ~protection ~paging:false () in
  let irq = Bus.Irq.create () in
  let intr_page = List.hd (Xen.Hypervisor.alloc_hyp_pages xen 1) in
  let config =
    { Cdna.Cnic.default_config with Nic.Nic_config.materialize_payloads = true }
  in
  let nic =
    Cdna.Cnic.create engine ~mem ~dma:(Bus.Dma_engine.create engine ~mem ())
      ~config ~irq ~dma_context_base:0
      ~intr_base:(Memory.Addr.base_of_pfn intr_page)
      ()
  in
  Cdna.Hyp.add_nic cdna nic;
  let link = Sim.Engine.now engine |> fun _ -> Ethernet.Link.create engine () in
  Nic.Dp.attach_link (Cdna.Cnic.dp nic) link ~side:Ethernet.Link.A;
  let wire_frames = ref [] in
  Ethernet.Link.attach link Ethernet.Link.B (fun f ->
      wire_frames := f :: !wire_frames);
  (engine, mem, xen, cdna, nic, attacker, victim, wire_frames)

(* Let queued hypercalls, DMA, and wire activity play out. *)
let settle engine =
  Sim.Engine.run engine
    ~until:(Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms 5))

let await engine f =
  let result = ref None in
  f (fun x -> result := Some x);
  settle engine;
  match !result with Some x -> x | None -> failwith "hypercall never completed"

let describe_error = function
  | `Not_owner pfn -> Printf.sprintf "Not_owner(pfn %d)" pfn
  | `Bad_length -> "Bad_length"
  | `Bad_ring_size -> "Bad_ring_size"
  | `Bad_ring_base -> "Bad_ring_base"
  | `Ring_full -> "Ring_full"
  | `Ring_unregistered -> "Ring_unregistered"
  | `Revoked -> "Revoked"

let secret_len = 64

(* Plant a recognizable secret in a victim-owned page. *)
let plant_secret mem xen victim =
  let pfn = List.hd (Xen.Hypervisor.alloc_pages xen victim 1) in
  let secret = Bytes.init secret_len (fun i -> Char.chr (0x41 + (i mod 26))) in
  Memory.Phys_mem.write mem ~addr:(Memory.Addr.base_of_pfn pfn) secret;
  (pfn, secret)

let setup_attacker_context engine cdna nic xen attacker =
  let handle =
    match
      Cdna.Hyp.assign_context cdna ~nic ~guest:attacker
        ~mac:(Ethernet.Mac_addr.make 1) ~isr_cost:(Sim.Time.us 1)
    with
    | Ok h -> h
    | Error `No_free_context -> failwith "no free context"
  in
  let ring_page = List.hd (Xen.Hypervisor.alloc_pages xen attacker 1) in
  (match
     await engine (fun k ->
         Cdna.Hyp.register_ring cdna handle Cdna.Hyp.Tx
           ~base:(Memory.Addr.base_of_pfn ring_page)
           ~slots:64 k)
   with
  | Ok () -> ()
  | Error e -> failwith ("ring registration failed: " ^ describe_error e));
  let rx_ring_page = List.hd (Xen.Hypervisor.alloc_pages xen attacker 1) in
  (match
     await engine (fun k ->
         Cdna.Hyp.register_ring cdna handle Cdna.Hyp.Rx
           ~base:(Memory.Addr.base_of_pfn rx_ring_page)
           ~slots:64 k)
   with
  | Ok () -> ()
  | Error e -> failwith ("rx ring registration failed: " ^ describe_error e));
  let status_page = List.hd (Xen.Hypervisor.alloc_pages xen attacker 1) in
  (match
     await engine (fun k ->
         Cdna.Hyp.register_status cdna handle
           ~addr:(Memory.Addr.base_of_pfn status_page)
           k)
   with
  | Ok () -> ()
  | Error e -> failwith ("status registration failed: " ^ describe_error e));
  handle

let cross_domain_descriptor victim_pfn =
  {
    Memory.Dma_desc.addr = Memory.Addr.base_of_pfn victim_pfn;
    len = secret_len;
    flags = Memory.Dma_desc.flag_end_of_packet;
    seqno = 0;
  }

let leak_frame handle =
  (* Metadata the attacker stages for its stolen-payload packet. *)
  ignore handle;
  Ethernet.Frame.make
    ~src:(Ethernet.Mac_addr.make 1)
    ~dst:(Ethernet.Mac_addr.make 99)
    ~kind:Ethernet.Frame.Data ~flow:666 ~seq:0 ~payload_len:secret_len
    ~payload_seed:0 ()

let () =
  section "1. Protection ON: cross-domain DMA is rejected";
  let engine, _mem, xen, cdna, nic, attacker, victim, _wire =
    build ~protection:Cdna.Cdna_costs.Full
  in
  let victim_pfn, _secret = plant_secret _mem xen victim in
  let handle = setup_attacker_context engine cdna nic xen attacker in
  (match
     await engine (fun k ->
         Cdna.Hyp.enqueue cdna handle Cdna.Hyp.Tx
           [ cross_domain_descriptor victim_pfn ]
           k)
   with
  | Ok _ -> unexpected "hypervisor accepted the descriptor!"
  | Error e ->
      Printf.printf
        "hypervisor rejected the enqueue with %s — the attacker cannot\n\
         name another domain's memory in a DMA descriptor.\n"
        (describe_error e));

  section "2. Protection ON: stale-descriptor replay trips the NIC";
  (* Enqueue one legitimate descriptor, then push the producer index past
     it: the NIC fetches a slot the hypervisor never stamped, sees a
     discontinuous sequence number, and raises a guest-specific fault. *)
  let own_pfn = List.hd (Xen.Hypervisor.alloc_pages xen attacker 1) in
  let own_desc =
    {
      Memory.Dma_desc.addr = Memory.Addr.base_of_pfn own_pfn;
      len = secret_len;
      flags = Memory.Dma_desc.flag_end_of_packet;
      seqno = 0;
    }
  in
  let hw = Cdna.Hyp.driver_if handle in
  (match
     await engine (fun k -> Cdna.Hyp.enqueue cdna handle Cdna.Hyp.Tx [ own_desc ] k)
   with
  | Ok prod ->
      hw.Nic.Driver_if.stage_tx_meta (leak_frame handle);
      hw.Nic.Driver_if.stage_tx_meta (leak_frame handle);
      (* Doorbell one past what the hypervisor enqueued. *)
      hw.Nic.Driver_if.tx_doorbell (prod + 1);
      settle engine;
      let faults = Cdna.Hyp.faults cdna in
      Printf.printf
        "NIC protection faults reported to the hypervisor: %d %s\n"
        (List.length faults)
        (if
           List.exists
             (fun (d, _) -> d = Xen.Domain.id attacker)
             faults
         then "(attributed to the attacker domain)"
         else "");
      Printf.printf "attacker context faulted on the NIC: %b\n"
        (Nic.Dp.is_faulted (Cdna.Cnic.dp nic) ~ctx:(Cdna.Hyp.ctx_id handle))
  | Error e -> Printf.printf "unexpected enqueue failure: %s\n" (describe_error e));

  section "3. Protection ON: pinned pages cannot be reallocated";
  let engine2, mem2, xen2, cdna2, nic2, attacker2, _victim2, _ =
    build ~protection:Cdna.Cdna_costs.Full
  in
  let handle2 = setup_attacker_context engine2 cdna2 nic2 xen2 attacker2 in
  let dma_pfn = List.hd (Xen.Hypervisor.alloc_pages xen2 attacker2 1) in
  (match
     await engine2 (fun k ->
         Cdna.Hyp.enqueue cdna2 handle2 Cdna.Hyp.Rx
           [
             {
               Memory.Dma_desc.addr = Memory.Addr.base_of_pfn dma_pfn;
               len = Memory.Addr.page_size;
               flags = 0;
               seqno = 0;
             };
           ]
           k)
   with
  | Ok _ ->
      Printf.printf "receive buffer enqueued; pinned pages for context: %d\n"
        (Cdna.Hyp.pinned_pages handle2);
      (* The guest frees the page while DMA is outstanding. *)
      Xen.Hypervisor.free_page xen2 attacker2 dma_pfn;
      (match Memory.Phys_mem.state mem2 dma_pfn with
      | Memory.Page.Quarantined _ ->
          print_endline
            "page freed during outstanding DMA is quarantined, not \
             reallocated — exactly the reference-count pinning of paper \
             section 3.3."
      | _ -> unexpected "page was not quarantined")
  | Error e -> Printf.printf "unexpected enqueue failure: %s\n" (describe_error e));

  section "4. Protection OFF (Table 4 mode): the same attack leaks memory";
  let engine3, mem3, xen3, cdna3, nic3, attacker3, victim3, wire3 =
    build ~protection:Cdna.Cdna_costs.Disabled
  in
  let victim_pfn3, secret3 = plant_secret mem3 xen3 victim3 in
  let handle3 = setup_attacker_context engine3 cdna3 nic3 xen3 attacker3 in
  let hw3 = Cdna.Hyp.driver_if handle3 in
  (match
     await engine3 (fun k ->
         Cdna.Hyp.enqueue cdna3 handle3 Cdna.Hyp.Tx
           [ cross_domain_descriptor victim_pfn3 ]
           k)
   with
  | Error e -> Printf.printf "unexpected rejection: %s\n" (describe_error e)
  | Ok prod ->
      hw3.Nic.Driver_if.stage_tx_meta (leak_frame handle3);
      hw3.Nic.Driver_if.tx_doorbell prod;
      settle engine3;
      (match !wire3 with
      | frame :: _ ->
          let leaked =
            match frame.Ethernet.Frame.data with
            | Some data -> Bytes.equal data secret3
            | None -> false
          in
          if leaked then
            print_endline
              "the NIC DMA-read the victim's page and transmitted its \
               bytes on the wire: without hypervisor validation, a buggy \
               or malicious driver compromises other domains."
          else unexpected "frame transmitted but contents differ"
      | [] -> unexpected "no frame reached the wire"));

  section "5. Revocation: the hypervisor can pull a context at any time";
  Cdna.Hyp.revoke cdna3 handle3;
  (try
     hw3.Nic.Driver_if.tx_doorbell 99;
     unexpected "PIO through a revoked mapping succeeded"
   with Bus.Mmio.Fault _ ->
     print_endline
       "PIO through the revoked mailbox mapping faults; the context and \
        its pending operations are gone.");
  print_newline ();
  exit (if !failures = 0 then 0 else 1)
