type malice =
  | Out_of_sequence
  | Foreign_page of Memory.Addr.pfn
  | Over_length

type t = {
  mem : Memory.Phys_mem.t;
  post_kernel : cost:Sim.Time.t -> (unit -> unit) -> unit;
  costs : Os_costs.t;
  hw : Nic.Driver_if.t;
  materialize : bool;
  sg_split : int option;
  tx_slots : int;
  rx_slots : int;
  tx_ring : Nic.Ring.t;
  rx_ring : Nic.Ring.t;
  tx_pages : Memory.Addr.pfn array;
  rx_pages : Memory.Addr.pfn array;
  mutable tx_prod : int;
  mutable tx_cons_seen : int;
  mutable rx_prod : int;
  pending : Ethernet.Frame.t Queue.t;
  (* Reused staging buffer for generating spec-only payloads into DMA
     pages; [Phys_mem.write_sub] copies synchronously. *)
  mutable scratch : Bytes.t;
  mutable was_full : bool;
  mutable poll_scheduled : bool;
  mutable netdev : Netdev.t option;
  mutable tx_count : int;
  mutable rx_count : int;
  mutable polls : int;
  mutable malice : malice option;
  mutable malicious_descs : int;
}

let page_addr pfn = Memory.Addr.base_of_pfn pfn

let check_slots name n =
  if n < 2 || n > 256 || n land (n - 1) <> 0 then
    invalid_arg (name ^ ": slots must be a power of two in [2, 256]")

let tx_in_flight t = t.tx_prod - t.tx_cons_seen
let ring_space t = t.tx_slots - tx_in_flight t
let tx_space t = Int.max 0 (ring_space t - Queue.length t.pending)
let the_netdev t = Option.get t.netdev

(* Descriptors a packet occupies under the configured scatter/gather
   policy. *)
let descs_per_packet t frame =
  match t.sg_split with
  | Some split when frame.Ethernet.Frame.payload_len > split -> 2
  | Some _ | None -> 1

let write_tx_descriptor t frame =
  let pfn = t.tx_pages.(t.tx_prod land (t.tx_slots - 1)) in
  let len = frame.Ethernet.Frame.payload_len in
  if t.materialize then begin
    let addr = page_addr pfn in
    match frame.Ethernet.Frame.data with
    | Some d ->
        (Memory.Phys_mem.write t.mem ~addr d
        [@cdna.protection_ok
          "native (non-virtualized) baseline: the OS owns all memory and \
           writes its own DMA buffers directly"])
    | None ->
        if Bytes.length t.scratch < len then
          t.scratch <- Bytes.create (Int.max len 2048);
        Ethernet.Frame.blit_payload ~seed:frame.Ethernet.Frame.payload_seed
          ~len t.scratch ~pos:0;
        (Memory.Phys_mem.write_sub t.mem ~addr t.scratch ~pos:0 ~len
        [@cdna.protection_ok
          "native (non-virtualized) baseline: the OS owns all memory and \
           writes its own DMA buffers directly"])
  end;
  let evil = t.malice in
  let emit ~offset ~len ~eop =
    let slot = t.tx_prod in
    let desc =
      {
        Memory.Dma_desc.addr = page_addr pfn + offset;
        len;
        flags = (if eop then Memory.Dma_desc.flag_end_of_packet else 0);
        seqno = slot land 0xFFFF;
      }
    in
    let desc =
      match evil with
      | Some kind when eop ->
          t.malicious_descs <- t.malicious_descs + 1;
          (match kind with
          | Out_of_sequence ->
              { desc with Memory.Dma_desc.seqno = (desc.seqno + 7) land 0xFFFF }
          | Foreign_page p -> { desc with Memory.Dma_desc.addr = page_addr p }
          | Over_length ->
              (* Runs the DMA off the end of the buffer page, far enough
                 to leave any plausible allocation of this driver. *)
              { desc with Memory.Dma_desc.len = (4 * Memory.Addr.page_size) + 512 })
      | Some _ | None -> desc
    in
    Memory.Desc_layout.write t.hw.Nic.Driver_if.desc_layout t.mem
      ~at:(Nic.Ring.slot_addr t.tx_ring slot)
      desc;
    t.tx_prod <- slot + 1
  in
  (match t.sg_split with
  | Some split when len > split ->
      (* Header fragment + payload fragment, as a zero-copy stack would
         hand down (scatter/gather I/O). *)
      emit ~offset:0 ~len:split ~eop:false;
      emit ~offset:split ~len:(len - split) ~eop:true
  | Some _ | None -> emit ~offset:0 ~len ~eop:true);
  t.hw.Nic.Driver_if.stage_tx_meta frame

(* Move queued frames into ring slots and ring the doorbell once. *)
let pump_tx t =
  let moved = ref 0 in
  while
    (match Queue.peek_opt t.pending with
    | Some frame -> ring_space t >= descs_per_packet t frame
    | None -> false)
  do
    write_tx_descriptor t (Queue.pop t.pending);
    incr moved
  done;
  if !moved > 0 then t.hw.Nic.Driver_if.tx_doorbell t.tx_prod;
  if t.was_full && tx_space t > 0 then begin
    t.was_full <- false;
    Netdev.notify_writable (the_netdev t)
  end

let post_rx_descriptor t =
  let slot = t.rx_prod in
  let pfn = t.rx_pages.(slot land (t.rx_slots - 1)) in
  let desc =
    {
      Memory.Dma_desc.addr = page_addr pfn;
      len = Memory.Addr.page_size;
      flags = 0;
      seqno = slot land 0xFFFF;
    }
  in
  Memory.Desc_layout.write t.hw.Nic.Driver_if.desc_layout t.mem
    ~at:(Nic.Ring.slot_addr t.rx_ring slot)
    desc;
  t.rx_prod <- slot + 1

(* Read the received payload back out of the DMA buffer so that memory
   corruption (e.g. protection violations) is observable end to end. *)
let frame_from_buffer t (idx, frame) =
  if not t.materialize then frame
  else begin
    let pfn = t.rx_pages.(idx land (t.rx_slots - 1)) in
    let len = frame.Ethernet.Frame.payload_len in
    let data =
      (Memory.Phys_mem.read t.mem ~addr:(page_addr pfn) ~len
      [@cdna.protection_ok
        "native (non-virtualized) baseline: the OS owns all memory and \
         reads its own DMA buffers directly"])
    in
    { frame with Ethernet.Frame.data = Some data }
  end

let rec poll t () =
  t.polls <- t.polls + 1;
  t.poll_scheduled <- false;
  let tx_done = t.hw.Nic.Driver_if.take_tx_completions () in
  let rxs =
    t.hw.Nic.Driver_if.take_rx_completions ~max:t.costs.Os_costs.rx_poll_budget
  in
  let n_rx = List.length rxs in
  let cost = Sim.Time.mul_int t.costs.Os_costs.driver_rx_per_pkt n_rx in
  t.post_kernel ~cost (fun () ->
      if tx_done > 0 then begin
        t.tx_cons_seen <- t.tx_cons_seen + tx_done;
        t.tx_count <- t.tx_count + tx_done;
        pump_tx t;
        Netdev.notify_tx_done (the_netdev t) tx_done
      end;
      if n_rx > 0 then begin
        let frames = List.map (frame_from_buffer t) rxs in
        List.iter (fun _ -> post_rx_descriptor t) frames;
        t.hw.Nic.Driver_if.rx_doorbell t.rx_prod;
        t.rx_count <- t.rx_count + n_rx;
        Netdev.deliver_rx (the_netdev t) frames
      end;
      (* NAPI: keep polling while the device has more work. *)
      if
        t.hw.Nic.Driver_if.rx_completions_pending () > 0
        && not t.poll_scheduled
      then begin
        t.poll_scheduled <- true;
        t.post_kernel ~cost:t.costs.Os_costs.driver_wakeup_fixed (poll t)
      end)

let handle_interrupt t =
  if not t.poll_scheduled then begin
    t.poll_scheduled <- true;
    t.post_kernel ~cost:t.costs.Os_costs.driver_wakeup_fixed (poll t)
  end

let send_impl t frames =
  let n = List.length frames in
  if n > 0 then begin
    let cost = Sim.Time.mul_int t.costs.Os_costs.driver_tx_per_pkt n in
    t.post_kernel ~cost (fun () ->
        List.iter (fun f -> Queue.push f t.pending) frames;
        pump_tx t;
        if not (Queue.is_empty t.pending) then t.was_full <- true)
  end

let create ~mem ~post_kernel ~costs ~hw ~mac ~alloc_pages ?(tx_slots = 256)
    ?(rx_slots = 256) ?(materialize = false) ?sg_split () =
  (match sg_split with
  | Some n when n <= 0 -> invalid_arg "Native_driver: non-positive sg_split"
  | Some _ | None -> ());
  check_slots "Native_driver tx" tx_slots;
  check_slots "Native_driver rx" rx_slots;
  let page1 l = match l with [ p ] -> p | _ -> assert false in
  let tx_ring_page = page1 (alloc_pages 1) in
  let rx_ring_page = page1 (alloc_pages 1) in
  let status_page = page1 (alloc_pages 1) in
  let tx_pages = Array.of_list (alloc_pages tx_slots) in
  let rx_pages = Array.of_list (alloc_pages rx_slots) in
  let desc_bytes = hw.Nic.Driver_if.desc_layout.Memory.Desc_layout.size in
  let tx_ring =
    Nic.Ring.create ~base:(page_addr tx_ring_page) ~slots:tx_slots ~desc_bytes ()
  in
  let rx_ring =
    Nic.Ring.create ~base:(page_addr rx_ring_page) ~slots:rx_slots ~desc_bytes ()
  in
  let t =
    {
      mem;
      post_kernel;
      costs;
      hw;
      materialize;
      sg_split;
      tx_slots;
      rx_slots;
      tx_ring;
      rx_ring;
      tx_pages;
      rx_pages;
      tx_prod = 0;
      tx_cons_seen = 0;
      rx_prod = 0;
      pending = Queue.create ();
      scratch = Bytes.empty;
      was_full = false;
      poll_scheduled = false;
      netdev = None;
      tx_count = 0;
      rx_count = 0;
      polls = 0;
      malice = None;
      malicious_descs = 0;
    }
  in
  let netdev =
    Netdev.create ~mac
      ~send:(fun frames -> send_impl t frames)
      ~tx_space:(fun () -> tx_space t)
  in
  t.netdev <- Some netdev;
  (* Program the hardware and post the full complement of rx buffers. *)
  hw.Nic.Driver_if.setup_tx_ring tx_ring;
  hw.Nic.Driver_if.setup_rx_ring rx_ring;
  hw.Nic.Driver_if.setup_status (page_addr status_page);
  for _ = 1 to rx_slots do
    post_rx_descriptor t
  done;
  hw.Nic.Driver_if.rx_doorbell t.rx_prod;
  t

let netdev t = the_netdev t
let tx_count t = t.tx_count
let rx_count t = t.rx_count
let polls t = t.polls

let set_malice t kind = t.malice <- kind

let malicious_descs t = t.malicious_descs
