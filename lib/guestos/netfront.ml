type t = {
  hyp : Xen.Hypervisor.t;
  gnt : Xen.Grant_table.t;
  dom : Xen.Domain.t;
  costs : Os_costs.t;
  xchan : Xchan.t;
  notify_backend : unit -> unit;
  materialize : bool;
  mem : Memory.Phys_mem.t;
  pool : Memory.Addr.pfn Sim.Fifo.t;
  pending : Ethernet.Frame.t Sim.Fifo.t;
  (* Reused staging buffer for generating spec-only payloads into pool
     pages; [Phys_mem.write_sub] copies synchronously, so reuse is safe. *)
  mutable scratch : Bytes.t;
  mutable was_full : bool;
  mutable event_pending : bool;
  mutable netdev : Netdev.t option;
  mutable tx_count : int;
  mutable rx_count : int;
}

let the_netdev t = Option.get t.netdev

let post_kernel t ~cost fn = Xen.Hypervisor.kernel_work t.hyp t.dom ~cost fn

(* Land a frame's payload in a pool page without allocating: frames that
   carry bytes are written directly, spec-only frames are generated into
   the reused scratch buffer first. *)
let write_payload t ~addr frame =
  match frame.Ethernet.Frame.data with
  | Some d ->
      (Memory.Phys_mem.write t.mem ~addr d
      [@cdna.protection_ok
        "guest CPU store into the guest's own granted pool page, not DMA"])
  | None ->
      let len = frame.Ethernet.Frame.payload_len in
      if Bytes.length t.scratch < len then
        t.scratch <- Bytes.create (Int.max len 2048);
      Ethernet.Frame.blit_payload ~seed:frame.Ethernet.Frame.payload_seed ~len
        t.scratch ~pos:0;
      (Memory.Phys_mem.write_sub t.mem ~addr t.scratch ~pos:0 ~len
      [@cdna.protection_ok
        "guest CPU store into the guest's own granted pool page, not DMA"])

let tx_space t =
  Int.max 0
    (Int.min (Xchan.tx_space t.xchan) (Sim.Fifo.length t.pool)
    - Sim.Fifo.length t.pending)

(* Move pending frames onto the shared ring, attaching a pool page each,
   and kick the back end once per batch. Runs in guest kernel context. *)
let pump t =
  let pushed = ref 0 in
  let was_empty = Xchan.tx_used t.xchan = 0 in
  let continue = ref true in
  while
    !continue
    && (not (Sim.Fifo.is_empty t.pending))
    && Xchan.tx_space t.xchan > 0
  do
    if Sim.Fifo.is_empty t.pool then continue := false
    else begin
      let pfn = Sim.Fifo.pop t.pool in
      let frame = Sim.Fifo.pop t.pending in
      if t.materialize then
        write_payload t ~addr:(Memory.Addr.base_of_pfn pfn) frame;
      ignore (Xchan.tx_push t.xchan { Xchan.frame; pfn });
      incr pushed
    end
  done;
  if !pushed > 0 then begin
    t.tx_count <- t.tx_count + !pushed;
    (* Event-index protocol: only notify when the back end may have gone
       idle on this ring (it was empty); otherwise it will poll the new
       requests on its next run. *)
    if was_empty then t.notify_backend ()
  end;
  if t.was_full && tx_space t > 0 then begin
    t.was_full <- false;
    Netdev.notify_writable (the_netdev t)
  end

let send_impl t frames =
  let n = List.length frames in
  if n > 0 then begin
    let cost = Sim.Time.mul_int t.costs.Os_costs.driver_tx_per_pkt n in
    post_kernel t ~cost (fun () ->
        List.iter (Sim.Fifo.push t.pending) frames;
        pump t;
        if not (Sim.Fifo.is_empty t.pending) then t.was_full <- true)
  end

(* Event from netback: take completions (with replacement pages) and
   received packets, charge per-packet kernel time, return the receive
   pages, deliver upward. *)
let rec handle_event t =
  t.event_pending <- false;
  let completed, replacement_pages = Xchan.take_tx_completions t.xchan in
  let rec drain n acc =
    if n = 0 then List.rev acc
    else
      match Xchan.rx_pop t.xchan with
      | None -> List.rev acc
      | Some e -> drain (n - 1) (e :: acc)
  in
  let rxs = drain t.costs.Os_costs.rx_poll_budget [] in
  let n_rx = List.length rxs in
  if completed > 0 || n_rx > 0 then begin
    let cost = Sim.Time.mul_int t.costs.Os_costs.driver_rx_per_pkt n_rx in
    post_kernel t ~cost (fun () ->
        List.iter (Sim.Fifo.push t.pool) replacement_pages;
        if completed > 0 then begin
          pump t;
          Netdev.notify_tx_done (the_netdev t) completed
        end;
        if n_rx > 0 then begin
          (* Flip the receive pages straight back to the driver domain to
             refill its exchange pool (one hypercall for the batch). *)
          let costs = Xen.Hypervisor.costs t.hyp in
          Xen.Hypervisor.hypercall t.hyp ~from:t.dom
            ~cost:(Sim.Time.mul_int costs.Xen.Costs.grant_transfer n_rx)
            (fun () ->
              match Xen.Hypervisor.driver_domain t.hyp with
              | None -> ()
              | Some driver ->
                  List.iter
                    (fun e ->
                      match
                        Xen.Grant_table.flip t.gnt ~src:t.dom ~dst:driver
                          e.Xchan.pfn
                      with
                      | Ok () -> Xchan.push_returned_page t.xchan e.Xchan.pfn
                      | Error (`Not_owner | `Pinned) -> ())
                    rxs);
          t.rx_count <- t.rx_count + n_rx;
          let frames =
            List.map
              (fun e ->
                if t.materialize then begin
                  let f = e.Xchan.frame in
                  let data =
                    (Memory.Phys_mem.read t.mem
                       ~addr:(Memory.Addr.base_of_pfn e.Xchan.pfn)
                       ~len:f.Ethernet.Frame.payload_len
                    [@cdna.protection_ok
                      "guest CPU load from a page the hypervisor just \
                       flipped to this guest, not DMA"])
                  in
                  { f with Ethernet.Frame.data = Some data }
                end
                else e.Xchan.frame)
              rxs
          in
          Netdev.deliver_rx (the_netdev t) frames
        end;
        (* Continue draining if the ring still has packets. *)
        if Xchan.rx_used t.xchan > 0 && not t.event_pending then begin
          t.event_pending <- true;
          post_kernel t ~cost:t.costs.Os_costs.driver_wakeup_fixed (fun () ->
              handle_event t)
        end)
  end

let create ~hyp ~gnt ~dom ~costs ~xchan ~mac ~notify_backend
    ?(pool_pages = 1024) ?(materialize = false) () =
  let pool = Sim.Fifo.create ~dummy:0 in
  List.iter (Sim.Fifo.push pool) (Xen.Hypervisor.alloc_pages hyp dom pool_pages);
  let t =
    {
      hyp;
      gnt;
      dom;
      costs;
      xchan;
      notify_backend;
      materialize;
      mem = Xen.Hypervisor.mem hyp;
      pool;
      pending = Sim.Fifo.create ~dummy:Ethernet.Frame.placeholder;
      scratch = Bytes.empty;
      was_full = false;
      event_pending = false;
      netdev = None;
      tx_count = 0;
      rx_count = 0;
    }
  in
  let netdev =
    Netdev.create ~mac
      ~send:(fun frames -> send_impl t frames)
      ~tx_space:(fun () -> tx_space t)
  in
  t.netdev <- Some netdev;
  t

let netdev t = the_netdev t

let register_metrics t m =
  let labels = [ ("domain", Xen.Domain.name t.dom) ] in
  Sim.Metrics.gauge m ~labels "netfront.tx_count" (fun () -> t.tx_count);
  Sim.Metrics.gauge m ~labels "netfront.rx_count" (fun () -> t.rx_count);
  Sim.Metrics.gauge m ~labels "netfront.pool_size" (fun () ->
      Sim.Fifo.length t.pool)
