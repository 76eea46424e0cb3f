(* Tests for the VMM substrate: domains, the hypervisor, event channels
   and the grant table. *)

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

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let us = Sim.Time.us

let fixture ?(total_pages = 1024) () =
  let engine = Sim.Engine.create () in
  let profile = Host.Profile.create () in
  let cpu = Host.Cpu.create engine ~profile () in
  let mem = Memory.Phys_mem.create ~total_pages () in
  let hyp = Xen.Hypervisor.create engine ~cpu ~mem ~costs:xen_costs () in
  (engine, profile, cpu, mem, hyp)

let run engine ms = Sim.Engine.run engine ~until:(Sim.Time.add (Sim.Engine.now engine) (Sim.Time.ms ms))

(* ---------- Domains ---------- *)

let test_domain_creation () =
  let _, _, _, mem, hyp = fixture () in
  let d0 =
    Xen.Hypervisor.create_domain hyp ~name:"driver" ~kind:Xen.Domain.Driver
      ~weight:256 ~mem_pages:100
  in
  let d1 =
    Xen.Hypervisor.create_domain hyp ~name:"guest" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:50
  in
  check_int "sequential ids" 0 (Xen.Domain.id d0);
  check_int "next id" 1 (Xen.Domain.id d1);
  check_int "pages" 100 (Xen.Domain.page_count d0);
  check_int "allocator view" (1024 - 150) (Memory.Phys_mem.free_pages mem);
  check_bool "driver domain found" true
    (match Xen.Hypervisor.driver_domain hyp with
    | Some d -> Xen.Domain.id d = 0
    | None -> false);
  (* Every allocated page is owned by the right domain. *)
  List.iter
    (fun p -> check_bool "owned" true (Memory.Phys_mem.owned_by mem p 1))
    (Xen.Domain.pages d1)

let test_domain_oom () =
  let _, _, _, _, hyp = fixture ~total_pages:16 () in
  Alcotest.check_raises "oom"
    (Invalid_argument "Hypervisor.create_domain: out of memory") (fun () ->
      ignore
        (Xen.Hypervisor.create_domain hyp ~name:"big" ~kind:Xen.Domain.Guest
           ~weight:256 ~mem_pages:17))

let test_domain_alloc_free () =
  let _, _, _, mem, hyp = fixture () in
  let d =
    Xen.Hypervisor.create_domain hyp ~name:"g" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:10
  in
  let extra = Xen.Hypervisor.alloc_pages hyp d 5 in
  check_int "grew" 15 (Xen.Domain.page_count d);
  Xen.Hypervisor.free_page hyp d (List.hd extra);
  check_int "shrank" 14 (Xen.Domain.page_count d);
  check_bool "page back in pool" true
    (not (Memory.Phys_mem.owned_by mem (List.hd extra) (Xen.Domain.id d)));
  (* Cannot free someone else's page. *)
  let other =
    Xen.Hypervisor.create_domain hyp ~name:"h" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:1
  in
  Alcotest.check_raises "foreign free"
    (Invalid_argument "Hypervisor.free_page: domain does not own page")
    (fun () -> Xen.Hypervisor.free_page hyp other (List.nth extra 1))

let test_domain_pages_sorted () =
  (* [pages] must come back in ascending pfn order: downstream fan-outs
     (grant sweeps, teardown) iterate it and must be deterministic. *)
  let _, _, _, _, hyp = fixture () in
  let d =
    Xen.Hypervisor.create_domain hyp ~name:"g" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:64
  in
  ignore (Xen.Hypervisor.alloc_pages hyp d 33);
  let ps = Xen.Domain.pages d in
  check_int "count" 97 (List.length ps);
  check_bool "ascending" true
    (List.for_all2 ( < ) ps (List.tl ps @ [ max_int ]))

(* [Domain.pages] and [page_count] read ownership from [Phys_mem], so
   after any mix of allocations, grant flips (some refused as pinned),
   DMA pins and frees (some quarantining) they must agree with a
   longhand per-domain page set kept beside the calls. *)
let prop_domain_pages_follow_ownership =
  QCheck.Test.make ~name:"pages follow flips and frees" ~count:100
    QCheck.(
      list_of_size Gen.(int_range 1 40)
        (quad (int_range 0 4) (int_range 0 2) (int_range 0 2) (int_range 0 7)))
    (fun ops ->
      let total_pages = 256 in
      let _, _, _, mem, hyp = fixture ~total_pages () in
      let doms =
        Array.init 3 (fun i ->
            Xen.Hypervisor.create_domain hyp ~name:(string_of_int i)
              ~kind:Xen.Domain.Guest ~weight:256 ~mem_pages:4)
      in
      let gnt = Xen.Grant_table.create hyp in
      let model = Array.map Xen.Domain.pages doms in
      let pins = Array.make total_pages 0 in
      let nth_page i k =
        match model.(i) with
        | [] -> None
        | ps -> Some (List.nth ps (k mod List.length ps))
      in
      let step (sel, i, j, k) =
        match (sel, nth_page i k) with
        | 0, Some p ->
            let expect = if pins.(p) > 0 then Error `Pinned else Ok () in
            let got = Xen.Grant_table.flip gnt ~src:doms.(i) ~dst:doms.(j) p in
            if got = Ok () then begin
              model.(i) <- List.filter (( <> ) p) model.(i);
              model.(j) <- List.sort Int.compare (p :: model.(j))
            end;
            got = expect
        | 1, Some p ->
            Xen.Hypervisor.free_page hyp doms.(i) p;
            model.(i) <- List.filter (( <> ) p) model.(i);
            true
        | 2, _ ->
            let fresh = Xen.Hypervisor.alloc_pages hyp doms.(i) (1 + (k mod 3)) in
            let owned_before =
              Array.exists (List.exists (fun p -> List.mem p fresh)) model
            in
            model.(i) <- List.sort Int.compare (fresh @ model.(i));
            not owned_before
        | 3, Some p ->
            Memory.Phys_mem.get_ref mem p;
            pins.(p) <- pins.(p) + 1;
            true
        | 4, _ -> (
            match List.find_opt (fun p -> pins.(p) > 0) (List.init total_pages Fun.id) with
            | Some p ->
                Memory.Phys_mem.put_ref mem p;
                pins.(p) <- pins.(p) - 1;
                true
            | None -> true)
        | _, None | _, Some _ -> true
      in
      List.for_all
        (fun op ->
          step op
          && Array.for_all2
               (fun d ps ->
                 Xen.Domain.pages d = ps
                 && Xen.Domain.page_count d = List.length ps)
               doms model)
        ops)

(* ---------- Work posting ---------- *)

let test_hypercall_charged_to_hypervisor () =
  let engine, profile, _, _, hyp = fixture () in
  let d =
    Xen.Hypervisor.create_domain hyp ~name:"g" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:4
  in
  let m = Sim.Metrics.create () in
  Host.Cpu.register_metrics (Xen.Hypervisor.cpu hyp) m;
  let ran = ref false in
  Xen.Hypervisor.hypercall hyp ~from:d ~cost:(us 3) (fun () -> ran := true);
  Xen.Hypervisor.kernel_work hyp d ~cost:(us 5) ignore;
  Xen.Hypervisor.user_work hyp d ~cost:(us 7) ignore;
  run engine 1;
  check_bool "ran" true !ran;
  check_int "hypercall time is hypervisor time" (us 3)
    (Sim.Time.to_ns
       (Host.Profile.total profile Host.Category.Hypervisor)
    - Sim.Time.to_ns
        ((* subtract the context-switch charge *)
         let switches = Sim.Metrics.sum m "cpu.ctx_switches" in
         Sim.Time.mul_int (Sim.Time.ns 2_500) switches));
  check_int "kernel" (us 5)
    (Host.Profile.total profile (Xen.Domain.kernel d));
  check_int "user" (us 7) (Host.Profile.total profile (Xen.Domain.user d))

let test_route_irq () =
  let engine, profile, _, _, hyp = fixture () in
  let irq = Bus.Irq.create () in
  let m = Sim.Metrics.create () in
  Xen.Hypervisor.register_metrics hyp m;
  let phys_irqs () = Sim.Metrics.sum m "xen.phys_irqs" in
  let handled = ref 0 in
  Xen.Hypervisor.route_irq hyp irq (fun () -> incr handled);
  Bus.Irq.assert_line irq;
  Bus.Irq.assert_line irq;
  run engine 1;
  check_int "handled" 2 !handled;
  check_int "counted" 2 (phys_irqs ());
  check_bool "isr time charged" true
    (Host.Profile.total profile Host.Category.Hypervisor > 0);
  Xen.Hypervisor.reset_counters hyp;
  check_int "reset" 0 (phys_irqs ())

(* ---------- Event channels ---------- *)

let evt_fixture () =
  let engine, profile, _, _, hyp = fixture () in
  let sender =
    Xen.Hypervisor.create_domain hyp ~name:"sender" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:4
  in
  let target =
    Xen.Hypervisor.create_domain hyp ~name:"target" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:4
  in
  (engine, profile, hyp, sender, target)

let test_event_channel_delivery () =
  let engine, _, hyp, sender, target = evt_fixture () in
  let hits = ref 0 in
  let chan =
    Xen.Event_channel.create hyp ~target ~isr_cost:(us 1) ~handler:(fun () ->
        incr hits)
  in
  Xen.Event_channel.notify chan ~from:sender;
  run engine 1;
  check_int "delivered" 1 !hits;
  check_int "deliveries" 1 (Xen.Event_channel.deliveries chan);
  check_int "target virq count" 1 (Xen.Domain.virq_count target);
  check_int "sender unaffected" 0 (Xen.Domain.virq_count sender)

let test_event_channel_merging () =
  (* Notifies while a delivery is pending merge into it, like a
     level-triggered pending bit. Hypervisor-side notifies queue as IRQ
     work, which all drains before the target entity runs its virq — so
     the merge window is deterministic. *)
  let engine, _, hyp, sender, target = evt_fixture () in
  let hits = ref 0 in
  let chan =
    Xen.Event_channel.create hyp ~target ~isr_cost:(us 1) ~handler:(fun () ->
        incr hits)
  in
  for _ = 1 to 5 do
    Xen.Event_channel.notify_from_hypervisor chan
  done;
  run engine 5;
  check_int "one delivery" 1 !hits;
  check_int "four merged" 4 (Xen.Event_channel.merged chan);
  (* After it drains, a fresh notify delivers again. *)
  Xen.Event_channel.notify chan ~from:sender;
  run engine 5;
  check_int "fresh delivery" 2 !hits

let test_event_channel_from_hypervisor () =
  let engine, _, hyp, _, target = evt_fixture () in
  let hits = ref 0 in
  let chan =
    Xen.Event_channel.create hyp ~target ~isr_cost:(us 1) ~handler:(fun () ->
        incr hits)
  in
  Xen.Event_channel.notify_from_hypervisor chan;
  run engine 1;
  check_int "delivered" 1 !hits

(* ---------- Grant table ---------- *)

let test_grant_flip () =
  let _, _, _, mem, hyp = fixture () in
  let a =
    Xen.Hypervisor.create_domain hyp ~name:"a" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:4
  in
  let b =
    Xen.Hypervisor.create_domain hyp ~name:"b" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:4
  in
  let p = List.hd (Xen.Domain.pages a) in
  let gnt = Xen.Grant_table.create hyp in
  check_bool "flip ok" true (Xen.Grant_table.flip gnt ~src:a ~dst:b p = Ok ());
  check_bool "owner now b" true (Memory.Phys_mem.owned_by mem p (Xen.Domain.id b));
  check_int "a's accounting" 3 (Xen.Domain.page_count a);
  check_int "b's accounting" 5 (Xen.Domain.page_count b);
  check_int "counted" 1 (Xen.Grant_table.flips gnt);
  (* a no longer owns it. *)
  check_bool "not owner anymore" true
    (Xen.Grant_table.flip gnt ~src:a ~dst:b p = Error `Not_owner)

let test_grant_flip_pinned () =
  let _, _, _, mem, hyp = fixture () in
  let a =
    Xen.Hypervisor.create_domain hyp ~name:"a" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:4
  in
  let b =
    Xen.Hypervisor.create_domain hyp ~name:"b" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:4
  in
  let p = List.hd (Xen.Domain.pages a) in
  let gnt = Xen.Grant_table.create hyp in
  Memory.Phys_mem.get_ref mem p;
  check_bool "pinned refuses" true
    (Xen.Grant_table.flip gnt ~src:a ~dst:b p = Error `Pinned);
  Memory.Phys_mem.put_ref mem p;
  check_bool "unpinned flips" true (Xen.Grant_table.flip gnt ~src:a ~dst:b p = Ok ())

(* The flip counter lives in the table, so two independent tables (two
   hosts / two LPs) issue independent counts. *)
let test_grant_tables_independent () =
  let _, _, _, _, hyp = fixture () in
  let a =
    Xen.Hypervisor.create_domain hyp ~name:"a" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:4
  in
  let b =
    Xen.Hypervisor.create_domain hyp ~name:"b" ~kind:Xen.Domain.Guest
      ~weight:256 ~mem_pages:4
  in
  let g1 = Xen.Grant_table.create hyp in
  let g2 = Xen.Grant_table.create hyp in
  let flip g ~src ~dst =
    let p = List.hd (Xen.Domain.pages src) in
    check_bool "flip ok" true (Xen.Grant_table.flip g ~src ~dst p = Ok ())
  in
  flip g1 ~src:a ~dst:b;
  flip g1 ~src:b ~dst:a;
  flip g2 ~src:a ~dst:b;
  check_int "g1 counts its own" 2 (Xen.Grant_table.flips g1);
  check_int "g2 counts its own" 1 (Xen.Grant_table.flips g2)

let suite =
  [
    ( "xen.domain",
      [
        Alcotest.test_case "creation" `Quick test_domain_creation;
        Alcotest.test_case "out of memory" `Quick test_domain_oom;
        Alcotest.test_case "alloc/free" `Quick test_domain_alloc_free;
        Alcotest.test_case "pages sorted" `Quick test_domain_pages_sorted;
        QCheck_alcotest.to_alcotest prop_domain_pages_follow_ownership;
      ] );
    ( "xen.hypervisor",
      [
        Alcotest.test_case "work categories" `Quick test_hypercall_charged_to_hypervisor;
        Alcotest.test_case "route irq" `Quick test_route_irq;
      ] );
    ( "xen.event_channel",
      [
        Alcotest.test_case "delivery" `Quick test_event_channel_delivery;
        Alcotest.test_case "merging" `Quick test_event_channel_merging;
        Alcotest.test_case "from hypervisor" `Quick test_event_channel_from_hypervisor;
      ] );
    ( "xen.grant_table",
      [
        Alcotest.test_case "flip" `Quick test_grant_flip;
        Alcotest.test_case "pinned" `Quick test_grant_flip_pinned;
        Alcotest.test_case "independent tables" `Quick
          test_grant_tables_independent;
      ] );
  ]
