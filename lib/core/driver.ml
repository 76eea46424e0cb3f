type t = {
  hyp : Hyp.t;
  mutable handle : Hyp.ctx_handle;
  costs : Guestos.Os_costs.t;
  mem : Memory.Phys_mem.t;
  materialize : bool;
  tx_slots : int;
  rx_slots : int;
  tx_pages : Memory.Addr.pfn array;
  rx_pages : Memory.Addr.pfn array;
  mutable ready : bool;
  mutable tx_prod : int; (* descriptors accepted by the hypervisor *)
  mutable tx_cons_seen : int;
  mutable rx_prod : int;
  pending : Ethernet.Frame.t Queue.t;
  (* Reused staging buffer for generating spec-only payloads into DMA
     pages; [Phys_mem.write_sub] copies synchronously. *)
  mutable scratch : Bytes.t;
  mutable tx_enqueue_busy : bool;
  mutable rx_enqueue_busy : bool;
  mutable rx_repost_backlog : int;
  mutable was_full : bool;
  mutable poll_scheduled : bool;
  mutable netdev : Guestos.Netdev.t option;
  mutable tx_count : int;
  mutable rx_count : int;
  mutable polls : int;
  mutable enqueue_errors : int;
  mutable recoveries : int;
  mutable generation : int;
      (* Bumped on rebind; in-flight hypercall continuations from the
         previous binding must not touch the new context. *)
  (* Ring/status pages, kept for re-registration at rebind. *)
  mutable init_pages : Memory.Addr.pfn * Memory.Addr.pfn * Memory.Addr.pfn;
}

let page_addr = Memory.Addr.base_of_pfn
let the_netdev t = Option.get t.netdev
let guest t = Hyp.guest_of t.handle

let post_kernel t ~cost fn =
  Xen.Hypervisor.kernel_work (Hyp.xen t.hyp) (guest t) ~cost fn

let tx_in_flight t = t.tx_prod - t.tx_cons_seen

let tx_space t =
  if not t.ready then 0
  else Int.max 0 (t.tx_slots - tx_in_flight t - Queue.length t.pending)

let descriptor_for ~pages ~slots ~idx ~len ~flags =
  let pfn = pages.(idx land (slots - 1)) in
  { Memory.Dma_desc.addr = page_addr pfn; len; flags; seqno = 0 }

(* ---------- Transmit ---------- *)

let rec pump_tx t =
  if t.ready && (not t.tx_enqueue_busy) && not (Queue.is_empty t.pending)
  then begin
    let room = t.tx_slots - tx_in_flight t in
    let k =
      Int.min room
        (Int.min (Queue.length t.pending) t.costs.Guestos.Os_costs.tx_batch_limit)
    in
    if k > 0 then begin
      let frames = List.init k (fun _ -> Queue.pop t.pending) in
      (* Stage payload bytes in this driver's own buffer pages. *)
      let descs =
        List.mapi
          (fun i frame ->
            let idx = t.tx_prod + i in
            let len = frame.Ethernet.Frame.payload_len in
            if t.materialize then begin
              let addr = page_addr t.tx_pages.(idx land (t.tx_slots - 1)) in
              match frame.Ethernet.Frame.data with
              | Some d -> Memory.Phys_mem.write t.mem ~addr d
              | None ->
                  if Bytes.length t.scratch < len then
                    t.scratch <- Bytes.create (Int.max len 2048);
                  Ethernet.Frame.blit_payload
                    ~seed:frame.Ethernet.Frame.payload_seed ~len t.scratch
                    ~pos:0;
                  Memory.Phys_mem.write_sub t.mem ~addr t.scratch ~pos:0 ~len
            end;
            descriptor_for ~pages:t.tx_pages ~slots:t.tx_slots ~idx ~len
              ~flags:Memory.Dma_desc.flag_end_of_packet)
          frames
      in
      t.tx_enqueue_busy <- true;
      let generation = t.generation in
      Hyp.enqueue t.hyp t.handle Hyp.Tx descs (fun result ->
          (* Continuation runs at hypercall completion; the doorbell PIO
             is the guest's own (small) kernel work. A rebind in between
             invalidates it. *)
          if t.generation <> generation then ()
          else
          match result with
          | Ok prod ->
              post_kernel t
                ~cost:(Hyp.costs t.hyp).Cdna_costs.pio_doorbell (fun () ->
                  if t.generation <> generation then ()
                  else begin
                  List.iter
                    (fun f -> (Hyp.driver_if t.handle).Nic.Driver_if.stage_tx_meta f)
                    frames;
                  t.tx_prod <- prod;
                  (Hyp.driver_if t.handle).Nic.Driver_if.tx_doorbell prod;
                  t.tx_enqueue_busy <- false;
                  pump_tx t;
                  if t.was_full && tx_space t > 0 then begin
                    t.was_full <- false;
                    Guestos.Netdev.notify_writable (the_netdev t)
                  end
                  end)
          | Error _ ->
              t.enqueue_errors <- t.enqueue_errors + 1;
              t.tx_enqueue_busy <- false;
              (* Requeue the batch at the front, preserving order. *)
              let rest = Queue.create () in
              Queue.transfer t.pending rest;
              List.iter (fun f -> Queue.push f t.pending) frames;
              Queue.transfer rest t.pending)
    end
  end

let send_impl t frames =
  let n = List.length frames in
  if n > 0 then begin
    let cost =
      Sim.Time.mul_int t.costs.Guestos.Os_costs.driver_tx_per_pkt n
    in
    post_kernel t ~cost (fun () ->
        List.iter (fun f -> Queue.push f t.pending) frames;
        pump_tx t;
        if not (Queue.is_empty t.pending) then t.was_full <- true)
  end

(* ---------- Receive buffer posting ---------- *)

let rec post_rx_buffers t =
  if t.ready && (not t.rx_enqueue_busy) && t.rx_repost_backlog > 0 then begin
    let k = Int.min t.rx_repost_backlog t.costs.Guestos.Os_costs.tx_batch_limit in
    t.rx_repost_backlog <- t.rx_repost_backlog - k;
    let descs =
      List.init k (fun i ->
          descriptor_for ~pages:t.rx_pages ~slots:t.rx_slots
            ~idx:(t.rx_prod + i) ~len:Memory.Addr.page_size ~flags:0)
    in
    t.rx_enqueue_busy <- true;
    let generation = t.generation in
    Hyp.enqueue t.hyp t.handle Hyp.Rx descs (fun result ->
        if t.generation <> generation then ()
        else
        match result with
        | Ok prod ->
            post_kernel t ~cost:(Hyp.costs t.hyp).Cdna_costs.pio_doorbell
              (fun () ->
                if t.generation <> generation then ()
                else begin
                  t.rx_prod <- prod;
                  (Hyp.driver_if t.handle).Nic.Driver_if.rx_doorbell prod;
                  t.rx_enqueue_busy <- false;
                  post_rx_buffers t
                end)
        | Error _ ->
            t.enqueue_errors <- t.enqueue_errors + 1;
            t.rx_repost_backlog <- t.rx_repost_backlog + k;
            t.rx_enqueue_busy <- false)
  end

(* ---------- Completion polling ---------- *)

let frame_from_buffer t (idx, frame) =
  if not t.materialize then frame
  else begin
    let pfn = t.rx_pages.(idx land (t.rx_slots - 1)) in
    let len = frame.Ethernet.Frame.payload_len in
    let data = Memory.Phys_mem.read t.mem ~addr:(page_addr pfn) ~len in
    { frame with Ethernet.Frame.data = Some data }
  end

let rec poll t () =
  t.polls <- t.polls + 1;
  t.poll_scheduled <- false;
  let hw = Hyp.driver_if t.handle in
  let tx_done = hw.Nic.Driver_if.take_tx_completions () in
  let rxs =
    hw.Nic.Driver_if.take_rx_completions
      ~max:t.costs.Guestos.Os_costs.rx_poll_budget
  in
  let n_rx = List.length rxs in
  let cost = Sim.Time.mul_int t.costs.Guestos.Os_costs.driver_rx_per_pkt n_rx in
  post_kernel t ~cost (fun () ->
      if tx_done > 0 then begin
        t.tx_cons_seen <- t.tx_cons_seen + tx_done;
        t.tx_count <- t.tx_count + tx_done;
        pump_tx t;
        Guestos.Netdev.notify_tx_done (the_netdev t) tx_done;
        if t.was_full && tx_space t > 0 then begin
          t.was_full <- false;
          Guestos.Netdev.notify_writable (the_netdev t)
        end
      end;
      if n_rx > 0 then begin
        let frames = List.map (frame_from_buffer t) rxs in
        t.rx_repost_backlog <- t.rx_repost_backlog + n_rx;
        post_rx_buffers t;
        t.rx_count <- t.rx_count + n_rx;
        Guestos.Netdev.deliver_rx (the_netdev t) frames
      end;
      if hw.Nic.Driver_if.rx_completions_pending () > 0 && not t.poll_scheduled
      then begin
        t.poll_scheduled <- true;
        post_kernel t ~cost:t.costs.Guestos.Os_costs.driver_wakeup_fixed
          (poll t)
      end)

let handle_interrupt t =
  if not t.poll_scheduled then begin
    t.poll_scheduled <- true;
    post_kernel t ~cost:t.costs.Guestos.Os_costs.driver_wakeup_fixed (poll t)
  end

let rec create ~hyp ~handle ~costs ?(materialize = false) () =
  let tx_slots = 256 and rx_slots = 256 in
  let xen = Hyp.xen hyp in
  let guest = Hyp.guest_of handle in
  let alloc n = Xen.Hypervisor.alloc_pages xen guest n in
  let page1 l = match l with [ p ] -> p | _ -> assert false in
  let tx_ring_page = page1 (alloc 1) in
  let rx_ring_page = page1 (alloc 1) in
  let status_page = page1 (alloc 1) in
  let tx_pages = Array.of_list (alloc tx_slots) in
  let rx_pages = Array.of_list (alloc rx_slots) in
  let t =
    {
      hyp;
      handle;
      costs;
      mem = Xen.Hypervisor.mem xen;
      materialize;
      tx_slots;
      rx_slots;
      tx_pages;
      rx_pages;
      ready = false;
      tx_prod = 0;
      tx_cons_seen = 0;
      rx_prod = 0;
      pending = Queue.create ();
      scratch = Bytes.empty;
      tx_enqueue_busy = false;
      rx_enqueue_busy = false;
      rx_repost_backlog = 0;
      was_full = false;
      poll_scheduled = false;
      netdev = None;
      tx_count = 0;
      rx_count = 0;
      polls = 0;
      enqueue_errors = 0;
      recoveries = 0;
      generation = 0;
      init_pages = (tx_ring_page, rx_ring_page, status_page);
    }
  in
  let netdev =
    Guestos.Netdev.create ~mac:(Hyp.mac_of handle)
      ~send:(fun frames -> send_impl t frames)
      ~tx_space:(fun () -> tx_space t)
  in
  t.netdev <- Some netdev;
  t.init_pages <- (tx_ring_page, rx_ring_page, status_page);
  initialize t;
  t

(* Asynchronous bring-up: register rings and status with the hypervisor,
   then post the full complement of receive buffers. Used both at creation
   and after a migration rebind. *)
and initialize t =
  let tx_ring_page, rx_ring_page, status_page = t.init_pages in
  Hyp.set_event_handler t.handle (fun () -> handle_interrupt t);
  Hyp.register_ring t.hyp t.handle Hyp.Tx
    ~base:(page_addr tx_ring_page) ~slots:t.tx_slots (fun _ ->
      Hyp.register_ring t.hyp t.handle Hyp.Rx
        ~base:(page_addr rx_ring_page) ~slots:t.rx_slots (fun _ ->
          Hyp.register_status t.hyp t.handle ~addr:(page_addr status_page)
            (fun _ ->
              t.ready <- true;
              t.rx_repost_backlog <- t.rx_slots;
              post_rx_buffers t;
              Guestos.Netdev.notify_writable (the_netdev t))))

let rebind t handle =
  t.generation <- t.generation + 1;
  t.handle <- handle;
  t.ready <- false;
  t.tx_prod <- 0;
  t.tx_cons_seen <- 0;
  t.rx_prod <- 0;
  t.tx_enqueue_busy <- false;
  t.rx_enqueue_busy <- false;
  t.rx_repost_backlog <- 0;
  t.poll_scheduled <- false;
  initialize t

(* Guest-driven fault recovery: when the NIC halts this driver's context
   with a protection fault, ask the hypervisor for a fresh context (same
   MAC, bounded retry/backoff inside {!Hyp.reassign}) and rebind to it.
   Frames lost on the halted context are the transport's problem, exactly
   as for migration. *)
let rec enable_auto_recovery t =
  Hyp.set_fault_hook t.handle (fun () ->
      Hyp.reassign t.hyp t.handle (function
        | Ok fresh ->
            t.recoveries <- t.recoveries + 1;
            rebind t fresh;
            enable_auto_recovery t
        | Error `No_free_context -> ()))

let netdev t = the_netdev t
let ready t = t.ready
let tx_count t = t.tx_count
let rx_count t = t.rx_count
let enqueue_errors t = t.enqueue_errors
let recoveries t = t.recoveries
let handle t = t.handle
