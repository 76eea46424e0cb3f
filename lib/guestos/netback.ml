type costs = {
  per_pkt_tx : Sim.Time.t;
  per_pkt_rx : Sim.Time.t;
  bridge_per_pkt : Sim.Time.t;
  wakeup_fixed : Sim.Time.t;
  per_ring_visit : Sim.Time.t;
  tx_budget : int;
  rx_budget : int;
  rx_overflow_cap : int;
}

type iface = {
  guest_dom : Xen.Domain.t;
  guest_mac : Ethernet.Mac_addr.t;
  xchan : Xchan.t;
  notify_frontend : unit -> unit;
  (* Received frames routed to this guest but not yet on its ring. *)
  overflow : Ethernet.Frame.t Sim.Fifo.t;
}

type port_target = Guest of iface | Phys of Netdev.t

type t = {
  hyp : Xen.Hypervisor.t;
  gnt : Xen.Grant_table.t;
  dom : Xen.Domain.t;
  costs : costs;
  mutable ring_rr : int; (* rotating start for fair ring service *)
  materialize : bool;
  mem : Memory.Phys_mem.t;
  bridge : port_target Bridge.t;
  mutable ifaces : (iface * port_target Bridge.port) list;
  mutable phys : port_target Bridge.port array; (* in [add_physical] order *)
  pool : Memory.Addr.pfn Sim.Fifo.t;
  (* Reused staging buffer for generating spec-only payloads into
     exchange pages; [Phys_mem.write_sub] copies synchronously. *)
  mutable scratch : Bytes.t;
  (* Frames received from the physical ports, and in step with them the
     index in [phys] of each one's ingress port. *)
  rx_inbox : Ethernet.Frame.t Sim.Fifo.t;
  rx_inbox_port : int Sim.Fifo.t;
  mutable scheduled : bool;
  mutable tx_forwarded : int;
  mutable rx_delivered : int;
  mutable rx_dropped : int;
  mutable runs : int;
}

let create ~hyp ~gnt ~dom ~costs ?(pool_pages = 4096) ?(materialize = false)
    () =
  let pool = Sim.Fifo.create ~dummy:0 in
  List.iter (Sim.Fifo.push pool) (Xen.Hypervisor.alloc_pages hyp dom pool_pages);
  {
    hyp;
    gnt;
    dom;
    costs;
    materialize;
    mem = Xen.Hypervisor.mem hyp;
    ring_rr = 0;
    bridge = Bridge.create ();
    ifaces = [];
    phys = [||];
    pool;
    scratch = Bytes.empty;
    rx_inbox = Sim.Fifo.create ~dummy:Ethernet.Frame.placeholder;
    rx_inbox_port = Sim.Fifo.create ~dummy:0;
    scheduled = false;
    tx_forwarded = 0;
    rx_delivered = 0;
    rx_dropped = 0;
    runs = 0;
  }

let post_kernel t ~cost fn = Xen.Hypervisor.kernel_work t.hyp t.dom ~cost fn

let hypercall t ~cost fn = Xen.Hypervisor.hypercall t.hyp ~from:t.dom ~cost fn

let grant_map_cost t = (Xen.Hypervisor.costs t.hyp).Xen.Costs.grant_map

let grant_transfer_cost t =
  (Xen.Hypervisor.costs t.hyp).Xen.Costs.grant_transfer

(* ---------- The netback thread ---------- *)

(* Work collected during one run. *)
type collected = {
  mutable tx : (iface * Xchan.entry * port_target Bridge.decision) list;
  mutable rx : (iface * Ethernet.Frame.t) list;  (* deliveries to guests *)
}

let rec schedule t =
  if not t.scheduled then begin
    t.scheduled <- true;
    let cost =
      Sim.Time.add t.costs.wakeup_fixed
        (Sim.Time.mul_int t.costs.per_ring_visit (List.length t.ifaces))
    in
    post_kernel t ~cost (fun () -> run t)
  end

and run t =
  t.scheduled <- false;
  t.runs <- t.runs + 1;
  let c = { tx = []; rx = [] } in
  (* Refill the exchange pool with pages returned by guests. *)
  List.iter
    (fun (iface, _) ->
      List.iter (Sim.Fifo.push t.pool) (Xchan.take_returned_pages iface.xchan))
    t.ifaces;
  collect_guest_tx t c;
  collect_rx t c;
  let n_tx = List.length c.tx and n_rx = List.length c.rx in
  if n_tx = 0 && n_rx = 0 then ()
  else begin
    let flips_cost =
      Sim.Time.add
        (Sim.Time.mul_int (grant_map_cost t) (2 * n_tx))
        (Sim.Time.mul_int (grant_transfer_cost t) n_rx)
    in
    let pkts_cost =
      Sim.Time.add
        (Sim.Time.mul_int
           (Sim.Time.add t.costs.per_pkt_tx t.costs.bridge_per_pkt)
           n_tx)
        (Sim.Time.mul_int
           (Sim.Time.add t.costs.per_pkt_rx t.costs.bridge_per_pkt)
           n_rx)
    in
    hypercall t ~cost:flips_cost (fun () ->
        post_kernel t ~cost:pkts_cost (fun () ->
            apply t c;
            if more_work t then schedule t))
  end

(* Drain transmit requests from the guest rings — at most [tx_budget]
   packets per run in total (the NAPI-style quantum real netback uses),
   starting from a rotating ring so service stays fair — routing as we go
   and respecting the egress device's available space. *)
and collect_guest_tx t c =
  let phys_budget = Sim.Int_tbl.create 8 in
  let space_for nd =
    match Sim.Int_tbl.find_opt phys_budget (Ethernet.Mac_addr.to_int48 (Netdev.mac nd)) with
    | Some s -> s
    | None ->
        let s = Netdev.tx_space nd in
        Sim.Int_tbl.replace phys_budget (Ethernet.Mac_addr.to_int48 (Netdev.mac nd)) s;
        s
  in
  let consume nd =
    let key = Ethernet.Mac_addr.to_int48 (Netdev.mac nd) in
    Sim.Int_tbl.replace phys_budget key (space_for nd - 1)
  in
  let ifaces = Array.of_list t.ifaces in
  let n_ifaces = Array.length ifaces in
  if n_ifaces > 0 then t.ring_rr <- (t.ring_rr + 1) mod n_ifaces;
  let budget = ref t.costs.tx_budget in
  let per_ring_cap = Int.max 4 (t.costs.tx_budget / Int.max 1 n_ifaces) in
  Array.iteri
    (fun k _ ->
      let iface, port = ifaces.((t.ring_rr + k) mod n_ifaces) in
      let ring_budget = ref per_ring_cap in
      let blocked = ref false in
      while
        (not !blocked) && !budget > 0 && !ring_budget > 0
        && Xchan.tx_used iface.xchan > 0
      do
        (* Peek first: if the egress device is full, the request stays on
           the ring — popping and re-pushing would reorder the flow, which
           an in-order receiver never forgives. *)
        match Xchan.tx_peek iface.xchan with
        | None -> blocked := true
        | Some entry ->
            let decision =
              Bridge.route t.bridge ~ingress:port entry.Xchan.frame
            in
            (match decision with
            | Bridge.To p -> (
                match Bridge.payload p with
                | Phys nd ->
                    if space_for nd <= 0 then blocked := true else consume nd
                | Guest _ -> ())
            | Bridge.Flood _ | Bridge.Drop -> ());
            if not !blocked then begin
              ignore (Xchan.tx_pop iface.xchan);
              decr budget;
              decr ring_budget;
              c.tx <- (iface, entry, decision) :: c.tx
            end
      done)
    ifaces;
  c.tx <- List.rev c.tx

and collect_rx t c =
  let budget = ref t.costs.rx_budget in
  (* First serve frames held over from previous runs. *)
  List.iter
    (fun (iface, _) ->
      while !budget > 0 && Xchan.rx_space iface.xchan > 0
            && not (Sim.Fifo.is_empty iface.overflow) do
        c.rx <- (iface, Sim.Fifo.pop iface.overflow) :: c.rx;
        decr budget
      done)
    t.ifaces;
  let continue = ref true in
  while !continue && !budget > 0 do
    if Sim.Fifo.is_empty t.rx_inbox then continue := false
    else begin
      let frame = Sim.Fifo.pop t.rx_inbox in
      let ingress = t.phys.(Sim.Fifo.pop t.rx_inbox_port) in
      match Bridge.route t.bridge ~ingress frame with
      | Bridge.To p -> (
          match Bridge.payload p with
          | Guest iface ->
              if Xchan.rx_space iface.xchan > 0 then begin
                c.rx <- (iface, frame) :: c.rx;
                decr budget
              end
              else if Sim.Fifo.length iface.overflow < t.costs.rx_overflow_cap
              then Sim.Fifo.push iface.overflow frame
              else begin
                t.rx_dropped <- t.rx_dropped + 1
              end
          | Phys nd -> Netdev.send nd [ frame ])
      | Bridge.Flood ports ->
          List.iter
            (fun p ->
              match Bridge.payload p with
              | Guest iface ->
                  if Sim.Fifo.length iface.overflow < t.costs.rx_overflow_cap
                  then Sim.Fifo.push iface.overflow frame
                  else t.rx_dropped <- t.rx_dropped + 1
              | Phys nd -> Netdev.send nd [ frame ])
            ports
      | Bridge.Drop -> ()
    end
  done;
  c.rx <- List.rev c.rx

(* Apply the collected work: page flips were paid for in the hypercall
   item; here we mutate ownership, move frames, and notify guests. *)
and apply t c =
  (* Event-index protocol: a guest only needs a virtual interrupt if its
     channel was quiet (nothing pending) before this run produced into it;
     a guest with pending state keeps polling until it drains. Quiescence
     is captured before any mutation below. *)
  let quiet_at_entry = Sim.Int_tbl.create 8 in
  List.iter
    (fun (iface, _) ->
      Sim.Int_tbl.replace quiet_at_entry
        (Xen.Domain.id iface.guest_dom)
        (Xchan.rx_used iface.xchan = 0
        && Xchan.tx_completions_pending iface.xchan = 0))
    t.ifaces;
  let touched = Sim.Int_tbl.create 8 in
  let touch iface =
    let key = Xen.Domain.id iface.guest_dom in
    if not (Sim.Int_tbl.mem touched key) then begin
      let quiet =
        match Sim.Int_tbl.find_opt quiet_at_entry key with
        | Some q -> q
        | None -> true
      in
      Sim.Int_tbl.replace touched key (iface, quiet)
    end
  in
  (* Guest transmit: exchange pages and forward through the bridge. *)
  let per_nd = Sim.Int_tbl.create 8 in
  let completions = Sim.Int_tbl.create 8 in
  List.iter
    (fun (iface, entry, decision) ->
      (* Flip the data page guest -> driver. *)
      (match
         Xen.Grant_table.flip t.gnt ~src:iface.guest_dom ~dst:t.dom
           entry.Xchan.pfn
       with
      | Ok () -> Sim.Fifo.push t.pool entry.Xchan.pfn
      | Error (`Not_owner | `Pinned) -> ());
      (* Pick a replacement page driver -> guest. *)
      let replacement =
        if Sim.Fifo.is_empty t.pool then []
        else
          let pfn = Sim.Fifo.pop t.pool in
          match
            Xen.Grant_table.flip t.gnt ~src:t.dom ~dst:iface.guest_dom pfn
          with
          | Ok () -> [ pfn ]
          | Error (`Not_owner | `Pinned) -> []
      in
      let key = Xen.Domain.id iface.guest_dom in
      let count, pages =
        match Sim.Int_tbl.find_opt completions key with
        | Some (c, p) -> (c, p)
        | None -> (0, [])
      in
      Sim.Int_tbl.replace completions key (count + 1, replacement @ pages);
      touch iface;
      t.tx_forwarded <- t.tx_forwarded + 1;
      let frame = entry.Xchan.frame in
      match decision with
      | Bridge.To p -> (
          match Bridge.payload p with
          | Phys nd ->
              let key = Ethernet.Mac_addr.to_int48 (Netdev.mac nd) in
              let batch =
                match Sim.Int_tbl.find_opt per_nd key with
                | Some (nd, fs) -> (nd, frame :: fs)
                | None -> (nd, [ frame ])
              in
              Sim.Int_tbl.replace per_nd key batch
          | Guest dst_iface ->
              (* Inter-guest traffic becomes a receive on the peer. *)
              if Sim.Fifo.length dst_iface.overflow < t.costs.rx_overflow_cap
              then Sim.Fifo.push dst_iface.overflow frame
              else t.rx_dropped <- t.rx_dropped + 1)
      | Bridge.Flood ports ->
          List.iter
            (fun p ->
              match Bridge.payload p with
              | Phys nd -> Netdev.send nd [ frame ]
              | Guest dst_iface ->
                  if Sim.Fifo.length dst_iface.overflow < t.costs.rx_overflow_cap
                  then Sim.Fifo.push dst_iface.overflow frame
                  else t.rx_dropped <- t.rx_dropped + 1)
            ports
      | Bridge.Drop -> ())
    c.tx;
  Sim.Int_tbl.iter_sorted per_nd (fun _ (nd, fs) -> Netdev.send nd (List.rev fs));
  (* Deliveries to guests: flip a pool page carrying the payload in. *)
  List.iter
    (fun (iface, frame) ->
      if Sim.Fifo.is_empty t.pool then
        (* Exchange pool empty; hold the frame for the next run. *)
        Sim.Fifo.push iface.overflow frame
      else begin
        let pfn = Sim.Fifo.pop t.pool in
        if t.materialize then begin
          let addr = Memory.Addr.base_of_pfn pfn in
          match frame.Ethernet.Frame.data with
          | Some d ->
              (Memory.Phys_mem.write t.mem ~addr d
              [@cdna.protection_ok
                "driver-domain CPU store into its own exchange-pool page \
                 before flipping it to the guest, not DMA"])
          | None ->
              let len = frame.Ethernet.Frame.payload_len in
              if Bytes.length t.scratch < len then
                t.scratch <- Bytes.create (Int.max len 2048);
              Ethernet.Frame.blit_payload
                ~seed:frame.Ethernet.Frame.payload_seed ~len t.scratch
                ~pos:0;
              (Memory.Phys_mem.write_sub t.mem ~addr t.scratch ~pos:0 ~len
              [@cdna.protection_ok
                "driver-domain CPU store into its own exchange-pool page \
                 before flipping it to the guest, not DMA"])
        end;
        match
          Xen.Grant_table.flip t.gnt ~src:t.dom ~dst:iface.guest_dom pfn
        with
        | Ok () ->
            if Xchan.rx_push iface.xchan { Xchan.frame; pfn } then begin
              t.rx_delivered <- t.rx_delivered + 1;
              touch iface
            end
            else begin
              (* Ring filled meanwhile: undo the flip, hold the frame. *)
              (match
                 Xen.Grant_table.flip t.gnt ~src:iface.guest_dom ~dst:t.dom
                   pfn
               with
              | Ok () -> Sim.Fifo.push t.pool pfn
              | Error (`Not_owner | `Pinned) -> ());
              Sim.Fifo.push iface.overflow frame
            end
        | Error (`Not_owner | `Pinned) -> Sim.Fifo.push t.pool pfn
      end)
    c.rx;
  (* Push completion records and send one notification per touched guest. *)
  Sim.Int_tbl.iter_sorted completions (fun dom_id (count, pages) ->
      match
        List.find_opt
          (fun (i, _) -> Xen.Domain.id i.guest_dom = dom_id)
          t.ifaces
      with
      | Some (iface, _) ->
          Xchan.push_tx_completion iface.xchan ~pages ~count
      | None -> ());
  Sim.Int_tbl.iter_sorted touched (fun _ (iface, quiet) ->
      if quiet then iface.notify_frontend ())

and more_work t =
  (not (Sim.Fifo.is_empty t.rx_inbox))
  || List.exists
       (fun (iface, _) ->
         Xchan.tx_used iface.xchan > 0
         || ((not (Sim.Fifo.is_empty iface.overflow))
            && Xchan.rx_space iface.xchan > 0))
       t.ifaces

let add_interface t ~guest_dom ~guest_mac ~xchan ~notify_frontend =
  let iface =
    {
      guest_dom;
      guest_mac;
      xchan;
      notify_frontend;
      overflow = Sim.Fifo.create ~dummy:Ethernet.Frame.placeholder;
    }
  in
  let port = Bridge.add_port t.bridge (Guest iface) in
  Bridge.learn t.bridge port guest_mac;
  t.ifaces <- t.ifaces @ [ (iface, port) ];
  iface

let add_physical t netdev ~remote_macs =
  let port = Bridge.add_port t.bridge (Phys netdev) in
  Bridge.learn t.bridge port (Netdev.mac netdev);
  List.iter (fun mac -> Bridge.learn t.bridge port mac) remote_macs;
  let index = Array.length t.phys in
  t.phys <- Array.append t.phys [| port |];
  Netdev.set_rx_handler netdev (fun frames ->
      List.iter
        (fun f ->
          Sim.Fifo.push t.rx_inbox f;
          Sim.Fifo.push t.rx_inbox_port index)
        frames;
      schedule t);
  Netdev.set_writable_hook netdev (fun () -> schedule t);
  (* Transmit completions return physical ring slots; resume draining the
     guest rings that were blocked on egress space. *)
  Netdev.set_tx_done_handler netdev (fun _ -> schedule t)


let register_metrics t m =
  Sim.Metrics.gauge m "netback.tx_forwarded" (fun () -> t.tx_forwarded);
  Sim.Metrics.gauge m "netback.rx_delivered" (fun () -> t.rx_delivered);
  Sim.Metrics.gauge m "netback.rx_dropped" (fun () -> t.rx_dropped);
  Sim.Metrics.gauge m "netback.runs" (fun () -> t.runs);
  Sim.Metrics.gauge m "netback.pool_size" (fun () -> Sim.Fifo.length t.pool)
