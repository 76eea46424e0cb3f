type malice =
  | Out_of_sequence
  | Foreign_page of Memory.Addr.pfn
  | Over_length

type backend =
  | Ring
  | Hypercall of {
      register :
        tx_ring:Nic.Ring.t ->
        rx_ring:Nic.Ring.t ->
        status:Memory.Addr.t ->
        (unit -> unit) ->
        unit;
      enqueue :
        [ `Tx | `Rx ] -> Memory.Dma_desc.t list -> (int option -> unit) -> unit;
    }

type t = {
  mem : Memory.Phys_mem.t;
  post_kernel : cost:Sim.Time.t -> (unit -> unit) -> unit;
  costs : Os_costs.t;
  backend : backend;
  mutable hw : Nic.Driver_if.t;
  materialize : bool;
  sg_split : int option;
  tx_ring : Nic.Ring.t;
  rx_ring : Nic.Ring.t;
  status : Memory.Addr.t;
  tx_pages : Memory.Addr.pfn array;
  rx_pages : Memory.Addr.pfn array;
  mutable ready : bool;
  mutable tx_prod : int; (* descriptors the device has been given *)
  mutable tx_cons_seen : int;
  mutable rx_prod : int;
  pending : Ethernet.Frame.t Sim.Fifo.t;
  (* Reused staging buffer for generating spec-only payloads into DMA
     pages; [Phys_mem.write_sub] copies synchronously. *)
  mutable scratch : Bytes.t;
  (* Hypercall back end: the frames of the transmit batch in flight
     ([[]] when none), the buffers of the receive batch in flight (0 when
     none), consumed receive buffers not yet reposted, and the batch
     continuations, built once in [create] so that posting a batch
     allocates no closure of its own. *)
  mutable tx_batch : Ethernet.Frame.t list;
  mutable rx_batch : int;
  mutable rx_backlog : int;
  mutable tx_posted : int option -> unit;
  mutable rx_posted : int option -> unit;
  mutable was_full : bool;
  mutable poll_scheduled : bool;
  mutable netdev : Netdev.t option;
  mutable tx_count : int;
  mutable rx_count : int;
  mutable polls : int;
  mutable malice : malice option;
  mutable malicious_descs : int;
}

let page_addr = Memory.Addr.base_of_pfn

let check_slots name n =
  if n < 2 || n > 256 || n land (n - 1) <> 0 then
    invalid_arg (name ^ ": slots must be a power of two in [2, 256]")

let the_netdev t = Option.get t.netdev

(* Ring slots not held by descriptors the device still owns. *)
let tx_room t = Array.length t.tx_pages - (t.tx_prod - t.tx_cons_seen)

let tx_space t =
  if not t.ready then 0 else Int.max 0 (tx_room t - Sim.Fifo.length t.pending)

let wake_if_writable t =
  if t.was_full && tx_space t > 0 then begin
    t.was_full <- false;
    Netdev.notify_writable (the_netdev t)
  end

let tx_page t slot = t.tx_pages.(slot land (Array.length t.tx_pages - 1))
let rx_page t slot = t.rx_pages.(slot land (Array.length t.rx_pages - 1))

(* ---------- Descriptor construction ---------- *)

(* Write [frame]'s payload into its transmit buffer page. *)
let stage_payload t ~page frame =
  if t.materialize then begin
    let addr = page_addr page in
    match frame.Ethernet.Frame.data with
    | Some d ->
        (Memory.Phys_mem.write t.mem ~addr d
        [@cdna.protection_ok
          "the driver writes its own buffer pages, allocated from its own \
           domain; the device only reads them through a descriptor"])
    | None ->
        let len = frame.Ethernet.Frame.payload_len in
        if Bytes.length t.scratch < len then
          t.scratch <- Bytes.create (Int.max len 2048);
        Ethernet.Frame.blit_payload ~seed:frame.Ethernet.Frame.payload_seed
          ~len t.scratch ~pos:0;
        (Memory.Phys_mem.write_sub t.mem ~addr t.scratch ~pos:0 ~len
        [@cdna.protection_ok
          "the driver writes its own buffer pages, allocated from its own \
           domain; the device only reads them through a descriptor"])
  end

(* A transmit descriptor; in malicious mode the end-of-packet one is
   forged. *)
let tx_desc t ~addr ~len ~eop ~seqno =
  let desc =
    {
      Memory.Dma_desc.addr;
      len;
      flags = (if eop then Memory.Dma_desc.flag_end_of_packet else 0);
      seqno;
    }
  in
  match t.malice with
  | Some kind when eop -> (
      t.malicious_descs <- t.malicious_descs + 1;
      match kind with
      | Out_of_sequence ->
          { desc with Memory.Dma_desc.seqno = (seqno + 7) land 0xFFFF }
      | Foreign_page p -> { desc with Memory.Dma_desc.addr = page_addr p }
      | Over_length ->
          (* Runs the DMA off the end of the buffer page, far enough to
             leave any plausible allocation of this driver. *)
          { desc with Memory.Dma_desc.len = (4 * Memory.Addr.page_size) + 512 })
  | Some _ | None -> desc

let rx_desc t ~slot ~seqno =
  {
    Memory.Dma_desc.addr = page_addr (rx_page t slot);
    len = Memory.Addr.page_size;
    flags = 0;
    seqno;
  }

(* The received frames, each payload read back out of its DMA buffer so
   that memory corruption (e.g. protection violations) is observable end
   to end. Recursion rather than [List.map], which would allocate a
   closure per poll. *)
let[@tail_mod_cons] rec frames_from_buffers t = function
  | [] -> []
  | (idx, frame) :: rest ->
      let frame =
        if not t.materialize then frame
        else begin
          let len = frame.Ethernet.Frame.payload_len in
          let data =
            (Memory.Phys_mem.read t.mem ~addr:(page_addr (rx_page t idx)) ~len
            [@cdna.protection_ok
              "the driver reads its own buffer pages, allocated from its \
               own domain, after the device wrote them"])
          in
          { frame with Ethernet.Frame.data = Some data }
        end
      in
      frame :: frames_from_buffers t rest

(* ---------- Ring back end ---------- *)

let ring_write t ring ~slot desc =
  Memory.Desc_layout.write t.hw.Nic.Driver_if.desc_layout t.mem
    ~at:(Nic.Ring.slot_addr ring slot)
    desc

let ring_emit t ~page ~offset ~len ~eop =
  let slot = t.tx_prod in
  ring_write t t.tx_ring ~slot
    (tx_desc t ~addr:(page_addr page + offset) ~len ~eop
       ~seqno:(slot land 0xFFFF));
  t.tx_prod <- slot + 1

(* Descriptors a packet occupies under the scatter/gather policy. *)
let descs_per_packet t frame =
  match t.sg_split with
  | Some split when frame.Ethernet.Frame.payload_len > split -> 2
  | Some _ | None -> 1

let ring_write_frame t frame =
  let page = tx_page t t.tx_prod in
  stage_payload t ~page frame;
  let len = frame.Ethernet.Frame.payload_len in
  (match t.sg_split with
  | Some split when len > split ->
      (* Header fragment + payload fragment, as a zero-copy stack would
         hand down (scatter/gather I/O). *)
      ring_emit t ~page ~offset:0 ~len:split ~eop:false;
      ring_emit t ~page ~offset:split ~len:(len - split) ~eop:true
  | Some _ | None -> ring_emit t ~page ~offset:0 ~len ~eop:true);
  t.hw.Nic.Driver_if.stage_tx_meta frame

(* Move queued frames into ring slots, counting room in descriptors, and
   ring the doorbell once. *)
let ring_pump_tx t =
  let moved = ref 0 in
  while
    (not (Sim.Fifo.is_empty t.pending))
    && tx_room t >= descs_per_packet t (Sim.Fifo.peek t.pending)
  do
    ring_write_frame t (Sim.Fifo.pop t.pending);
    incr moved
  done;
  if !moved > 0 then t.hw.Nic.Driver_if.tx_doorbell t.tx_prod;
  wake_if_writable t

let ring_post_rx t =
  let slot = t.rx_prod in
  ring_write t t.rx_ring ~slot (rx_desc t ~slot ~seqno:(slot land 0xFFFF));
  t.rx_prod <- slot + 1

let ring_repost_rx t n =
  for _ = 1 to n do
    ring_post_rx t
  done;
  t.hw.Nic.Driver_if.rx_doorbell t.rx_prod

(* ---------- Hypercall back end ---------- *)

(* Batches are built by recursion rather than [List.init]/[List.mapi],
   which would allocate a closure per batch. *)
let[@tail_mod_cons] rec pop_frames q n =
  if n = 0 then []
  else
    let frame = Sim.Fifo.pop q in
    frame :: pop_frames q (n - 1)

(* Stage each frame in the buffer page of its slot, counting from
   [slot]; one descriptor per frame. *)
let[@tail_mod_cons] rec hypercall_tx_descs t ~slot = function
  | [] -> []
  | frame :: rest ->
      let page = tx_page t slot in
      stage_payload t ~page frame;
      let desc =
        tx_desc t ~addr:(page_addr page) ~len:frame.Ethernet.Frame.payload_len
          ~eop:true ~seqno:0
      in
      desc :: hypercall_tx_descs t ~slot:(slot + 1) rest

let[@tail_mod_cons] rec hypercall_rx_descs t ~slot n =
  if n = 0 then []
  else
    let desc = rx_desc t ~slot ~seqno:0 in
    desc :: hypercall_rx_descs t ~slot:(slot + 1) (n - 1)

(* One batch of at most [tx_batch_limit] frames, counting room in frames
   (one descriptor each), while no other transmit batch is in flight. *)
let hypercall_pump_tx t enqueue =
  if t.ready && List.is_empty t.tx_batch && not (Sim.Fifo.is_empty t.pending)
  then begin
    let k =
      Int.min (tx_room t)
        (Int.min (Sim.Fifo.length t.pending) t.costs.Os_costs.tx_batch_limit)
    in
    if k > 0 then begin
      let frames = pop_frames t.pending k in
      let descs = hypercall_tx_descs t ~slot:t.tx_prod frames in
      t.tx_batch <- frames;
      enqueue `Tx descs t.tx_posted
    end
  end

let hypercall_post_rx t enqueue =
  if t.ready && t.rx_batch = 0 && t.rx_backlog > 0 then begin
    let k = Int.min t.rx_backlog t.costs.Os_costs.tx_batch_limit in
    t.rx_backlog <- t.rx_backlog - k;
    let descs = hypercall_rx_descs t ~slot:t.rx_prod k in
    t.rx_batch <- k;
    enqueue `Rx descs t.rx_posted
  end

(* ---------- Shared core ---------- *)

let pump_tx t =
  match t.backend with
  | Ring -> ring_pump_tx t
  | Hypercall { enqueue; _ } -> hypercall_pump_tx t enqueue

(* Repost from the backlog; the ring back end keeps none. *)
let post_rx t =
  match t.backend with
  | Ring -> ()
  | Hypercall { enqueue; _ } -> hypercall_post_rx t enqueue

let tx_posted t = function
  | Some prod ->
      List.iter t.hw.Nic.Driver_if.stage_tx_meta t.tx_batch;
      t.tx_prod <- prod;
      t.hw.Nic.Driver_if.tx_doorbell prod;
      t.tx_batch <- [];
      pump_tx t;
      wake_if_writable t
  | None ->
      (* Requeue the batch at the front, preserving order. *)
      let rest = Sim.Fifo.create ~dummy:Ethernet.Frame.placeholder in
      Sim.Fifo.transfer t.pending rest;
      List.iter (Sim.Fifo.push t.pending) t.tx_batch;
      t.tx_batch <- [];
      Sim.Fifo.transfer rest t.pending

let rx_posted t = function
  | Some prod ->
      t.rx_prod <- prod;
      t.hw.Nic.Driver_if.rx_doorbell prod;
      t.rx_batch <- 0;
      post_rx t
  | None ->
      t.rx_backlog <- t.rx_backlog + t.rx_batch;
      t.rx_batch <- 0

let repost_rx t n =
  match t.backend with
  | Ring -> ring_repost_rx t n
  | Hypercall _ ->
      t.rx_backlog <- t.rx_backlog + n;
      post_rx t

let rec poll t () =
  t.polls <- t.polls + 1;
  t.poll_scheduled <- false;
  let hw = t.hw in
  let tx_done = hw.Nic.Driver_if.take_tx_completions () in
  let rxs =
    hw.Nic.Driver_if.take_rx_completions ~max:t.costs.Os_costs.rx_poll_budget
  in
  let n_rx = List.length rxs in
  let cost = Sim.Time.mul_int t.costs.Os_costs.driver_rx_per_pkt n_rx in
  t.post_kernel ~cost (fun () ->
      if tx_done > 0 then begin
        t.tx_cons_seen <- t.tx_cons_seen + tx_done;
        t.tx_count <- t.tx_count + tx_done;
        pump_tx t;
        Netdev.notify_tx_done (the_netdev t) tx_done;
        (* The ring back end woke the stack inside [pump_tx]; the
           hypercall back end's pump does not wake it. *)
        match t.backend with
        | Ring -> ()
        | Hypercall _ -> wake_if_writable t
      end;
      if n_rx > 0 then begin
        let frames = frames_from_buffers t rxs in
        repost_rx t n_rx;
        t.rx_count <- t.rx_count + n_rx;
        Netdev.deliver_rx (the_netdev t) frames
      end;
      (* NAPI: keep polling while the device has more work. *)
      if hw.Nic.Driver_if.rx_completions_pending () > 0 && not t.poll_scheduled
      then begin
        t.poll_scheduled <- true;
        t.post_kernel ~cost:t.costs.Os_costs.driver_wakeup_fixed (poll t)
      end)

let handle_interrupt t =
  if not t.poll_scheduled then begin
    t.poll_scheduled <- true;
    t.post_kernel ~cost:t.costs.Os_costs.driver_wakeup_fixed (poll t)
  end

let send t frames =
  let n = List.length frames in
  if n > 0 then begin
    let cost = Sim.Time.mul_int t.costs.Os_costs.driver_tx_per_pkt n in
    t.post_kernel ~cost (fun () ->
        List.iter (Sim.Fifo.push t.pending) frames;
        pump_tx t;
        if not (Sim.Fifo.is_empty t.pending) then t.was_full <- true)
  end

let bring_up t =
  match t.backend with
  | Ring ->
      t.hw.Nic.Driver_if.setup_tx_ring t.tx_ring;
      t.hw.Nic.Driver_if.setup_rx_ring t.rx_ring;
      t.hw.Nic.Driver_if.setup_status t.status;
      ring_repost_rx t (Array.length t.rx_pages);
      t.ready <- true
  | Hypercall { register; _ } ->
      register ~tx_ring:t.tx_ring ~rx_ring:t.rx_ring ~status:t.status
        (fun () ->
          t.ready <- true;
          t.rx_backlog <- Array.length t.rx_pages;
          post_rx t;
          Netdev.notify_writable (the_netdev t))

let create ~mem ~post_kernel ~costs ~hw ~mac ~alloc_pages ?(tx_slots = 256)
    ?(rx_slots = 256) ?(materialize = false) ?sg_split ~backend () =
  (match sg_split with
  | Some n when n <= 0 -> invalid_arg "Nic_driver: non-positive sg_split"
  | Some _ | None -> ());
  check_slots "Nic_driver tx" tx_slots;
  check_slots "Nic_driver rx" rx_slots;
  (* Ring and status pages in one allocation, then the buffer pages. *)
  let control_pages = alloc_pages 3 in
  let tx_ring_page = List.nth control_pages 0 in
  let rx_ring_page = List.nth control_pages 1 in
  let status_page = List.nth control_pages 2 in
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
      backend;
      hw;
      materialize;
      sg_split;
      tx_ring;
      rx_ring;
      status = page_addr status_page;
      tx_pages;
      rx_pages;
      ready = false;
      tx_prod = 0;
      tx_cons_seen = 0;
      rx_prod = 0;
      pending = Sim.Fifo.create ~dummy:Ethernet.Frame.placeholder;
      scratch = Bytes.empty;
      tx_batch = [];
      rx_batch = 0;
      rx_backlog = 0;
      tx_posted = ignore;
      rx_posted = ignore;
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
  t.tx_posted <- tx_posted t;
  t.rx_posted <- rx_posted t;
  t.netdev <-
    Some
      (Netdev.create ~mac
         ~send:(fun frames -> send t frames)
         ~tx_space:(fun () -> tx_space t));
  bring_up t;
  t

let rebind t hw =
  t.hw <- hw;
  t.ready <- false;
  t.tx_prod <- 0;
  t.tx_cons_seen <- 0;
  t.rx_prod <- 0;
  t.tx_batch <- [];
  t.rx_batch <- 0;
  t.rx_backlog <- 0;
  t.poll_scheduled <- false;
  bring_up t

let ready t = t.ready
let netdev t = the_netdev t
let tx_count t = t.tx_count
let rx_count t = t.rx_count
let polls t = t.polls
let set_malice t kind = t.malice <- kind
let malicious_descs t = t.malicious_descs
