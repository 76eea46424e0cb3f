type fault =
  | Seqno_mismatch of { expected : int; got : int }
  | Missing_meta
  | Dma_fault of Bus.Dma_engine.fault
  | Producer_backwards of { published : int; prod : int }

type dir = Tx | Rx

(* Maximum Ethernet frame footprint used for optimistic buffer
   reservation in the transmit pipeline. *)
let max_frame_bytes = 1538
let ready_depth = 4
let seqno_mod = 1 lsl 16

(* A context's architectural state: what its guest programmed and what
   the NIC owes it. The record pages with the guest: [detach] hands it
   out whole and [attach] installs it on any reset slot, so a swap
   copies no field of it. *)
type arch = {
  mutable mac : Ethernet.Mac_addr.t option;
  mutable tx_ring : Ring.t option;
  mutable rx_ring : Ring.t option;
  mutable status_addr : Memory.Addr.t option;
  (* Free-running indices. [*_prod] is the driver's published producer;
     [tx_fetch_next]/[rx_use_next] are the firmware cursors; [*_cons] count
     fully completed descriptors. *)
  mutable tx_prod : int;
  mutable tx_fetch_next : int;
  mutable tx_cons : int;
  mutable rx_prod : int;
  mutable rx_use_next : int;
  mutable rx_cons : int;
  mutable tx_expected_seqno : int;
  mutable rx_expected_seqno : int;
  tx_meta : Ethernet.Frame.t Sim.Fifo.t;
  mutable tx_completed_unread : int;
  rx_completions : (int * Ethernet.Frame.t) Sim.Fifo.t;
  (* Read by the [nic.ctx.*] gauges of whichever slot holds the record. *)
  mutable tx_frames : int;
  mutable rx_frames : int;
}

(* One hardware context slot: its identity, the epoch every in-flight
   event for it is checked against, the stage state that names the slot,
   and the record of its occupant (a reset one while vacant). *)
type ctx = {
  id : int;
  mutable active : bool;
  mutable faulted : bool;
  mutable epoch : int;
  mutable arch : arch;
  (* Scatter/gather assembly: payload fragments of the packet being
     assembled land in [sg_buf[0, sg_len)] (grow-on-demand, reused across
     packets) until a descriptor with the end-of-packet flag arrives.
     Safe because the fetch engine admits one fragment DMA at a time
     ([fetch_ctx]), so the buffer is never grown under an in-flight
     [read_into]. *)
  mutable sg_buf : Bytes.t;
  mutable sg_len : int;
  mutable sg_frag_descs : int;
  rx_backlog : (Ethernet.Frame.t * int) Sim.Fifo.t; (* frame, epoch *)
}

type t = {
  engine : Sim.Engine.t;
  mem : Memory.Phys_mem.t;
  dma : Bus.Dma_engine.t;
  cfg : Nic_config.t;
  dma_context_base : int;
  notify : ctx:int -> unit;
  on_fault : ctx:int -> dir -> fault -> unit;
  ctxs : ctx array;
  mac_table : int Sim.Int_tbl.t; (* MAC (as int48) -> context *)
  mutable promiscuous : int option;
  tx_buf : Pkt_buf.t;
  rx_buf : Pkt_buf.t;
  (* Staging buffer for the one in-flight receive delivery ([rx_busy]
     serializes them): payload bytes are generated or truncated here and
     DMAed out with [write_from], so steady-state receive allocates
     nothing per frame. *)
  mutable rx_scratch : Bytes.t;
  mutable link : (Ethernet.Link.t * Ethernet.Link.side) option;
  (* Transmit pipeline: fetch stage feeding a small ready FIFO ahead of the
     wire stage. *)
  ready : (int * int * Ethernet.Frame.t * int * int) Sim.Fifo.t;
  (* ctx id, epoch, frame, reserved bytes, descriptors consumed *)
  (* Each stage has at most one operation in flight (busy while
     [fetch_ctx], [wire_cur] or [rx_busy] says so); its state lives in the
     fields below and its continuations are built once in [create]. *)
  mutable fetch_ctx : int; (* context the in-flight fetch serves, or -1 *)
  (* Whether the in-flight fetch already consumed a sequence number (its
     descriptor passed [check_seqno] and the payload DMA is in flight).
     [detach] needs this to roll the expected seqno back exactly. *)
  mutable fetch_checked : bool;
  mutable fetch_epoch : int;
  mutable fetch_daddr : Memory.Addr.t;
  (* Fragment length and flags of the descriptor whose payload is in
     flight. *)
  mutable fetch_len : int;
  mutable fetch_flags : int;
  mutable k_fetch_desc : (unit, Bus.Dma_engine.fault) result -> unit;
  mutable k_fetch_payload : (unit, Bus.Dma_engine.fault) result -> unit;
  (* Context (or -1), epoch and descriptors of the frame currently on
     the wire; [detach] credits it as completed since the bits are
     already leaving the NIC. *)
  mutable wire_cur : int;
  mutable wire_epoch : int;
  mutable wire_descs : int;
  mutable wire_frame : Ethernet.Frame.t;
  mutable wire_reserved : int;
  mutable k_wire_free : unit -> unit;
  mutable tx_rr : int;
  mutable rx_busy : bool;
  (* Context (or -1) and epoch of the in-flight receive delivery, and
     whether its descriptor already consumed a sequence number. *)
  mutable rx_cur : int;
  mutable rx_epoch : int;
  mutable rx_cur_checked : bool;
  mutable rx_idx : int;
  mutable rx_daddr : Memory.Addr.t;
  mutable rx_frame : Ethernet.Frame.t;
  mutable rx_len : int; (* bytes delivered: the frame cut to the buffer *)
  mutable k_rx_desc : (unit, Bus.Dma_engine.fault) result -> unit;
  mutable k_rx_deliver : (unit, Bus.Dma_engine.fault) result -> unit;
  mutable rx_rr : int;
  mutable congested : bool;
  mutable uncongested_hook : unit -> unit;
  (* aggregate statistics *)
  mutable s_tx_frames : int;
  mutable s_tx_bytes : int;
  mutable s_rx_frames : int;
  mutable s_rx_bytes : int;
  mutable s_no_ctx : int;
  mutable s_overflow : int;
  mutable s_truncated : int;
  mutable s_faults : int;
  (* Reset records for the slots [detach] vacates: [attach] returns the
     one it displaces to [spares.(0 .. n_spares - 1)]. *)
  mutable spares : arch array;
  mutable n_spares : int;
}

(* The dummies that fill the queues' vacated slots. *)
let no_backlog = (Ethernet.Frame.placeholder, 0)
let no_completion = (0, Ethernet.Frame.placeholder)
let no_ready = (-1, 0, Ethernet.Frame.placeholder, 0, 0)

(* The one spelling of a context's reset state. *)
let make_arch () =
  {
    mac = None;
    tx_ring = None;
    rx_ring = None;
    status_addr = None;
    tx_prod = 0;
    tx_fetch_next = 0;
    tx_cons = 0;
    rx_prod = 0;
    rx_use_next = 0;
    rx_cons = 0;
    tx_expected_seqno = 0;
    rx_expected_seqno = 0;
    tx_meta = Sim.Fifo.create ~dummy:Ethernet.Frame.placeholder;
    tx_completed_unread = 0;
    rx_completions = Sim.Fifo.create ~dummy:no_completion;
    tx_frames = 0;
    rx_frames = 0;
  }

let make_ctx id =
  {
    id;
    active = false;
    faulted = false;
    epoch = 0;
    arch = make_arch ();
    sg_buf = Bytes.empty;
    sg_len = 0;
    sg_frag_descs = 0;
    rx_backlog = Sim.Fifo.create ~dummy:no_backlog;
  }

let config t = t.cfg
let contexts t = Array.length t.ctxs
let dma t = t.dma
let dma_context t ~ctx = t.dma_context_base + ctx

let[@cdna.hot] ctx t i =
  if i < 0 || i >= Array.length t.ctxs then
    invalid_arg "Dp: context out of range";
  t.ctxs.(i)

let[@cdna.hot] dma_ctx t (c : ctx) = t.dma_context_base + c.id

(* Structured datapath events, tagged with the NIC's config name.
   Callers test [Sim.Trace.enabled] first, so the argument lists are only
   built while tracing. *)

let trace_event t ~args ~tid name =
  Sim.Trace.instant ~time:(Sim.Engine.now t.engine) ~tag:t.cfg.Nic_config.name
    ~tid ~args name

let fault t (c : ctx) dir f =
  t.s_faults <- t.s_faults + 1;
  c.faulted <- true;
  if Sim.Trace.enabled () then
    trace_event t ~tid:c.id
      ~args:
        [
          ("ctx", Sim.Trace.Int c.id);
          ("dir", Sim.Trace.Str (match dir with Tx -> "tx" | Rx -> "rx"));
        ]
      "protection-fault";
  t.on_fault ~ctx:c.id dir f

(* Congestion watermarks: pause above 3/4, resume below 1/2. *)
let hi_watermark t = Pkt_buf.capacity t.rx_buf * 3 / 4
let[@cdna.hot] lo_watermark t = Pkt_buf.capacity t.rx_buf / 2

let[@cdna.hot] release_rx_bytes t bytes =
  Pkt_buf.release t.rx_buf ~bytes;
  if t.congested && Pkt_buf.in_use t.rx_buf <= lo_watermark t then begin
    t.congested <- false;
    t.uncongested_hook ()
  end

let reserve_rx_bytes t bytes =
  if Pkt_buf.try_reserve t.rx_buf ~bytes then begin
    if Pkt_buf.in_use t.rx_buf >= hi_watermark t then t.congested <- true;
    true
  end
  else false

(* Sequence-number continuity check (paper section 3.3). *)
let seqno_ok ~expected ~got = got = expected mod seqno_mod

(* The NIC-side admission point for guest descriptors: a descriptor that
   passes continuity here is the one the hypervisor validated and
   stamped (Hyp.enqueue), so cdna_flow treats this check as the
   sanitizer on the device datapath. *)
let[@cdna.sanitizer] check_seqno t c dir (desc : Memory.Dma_desc.t) =
  if not t.cfg.Nic_config.seqno_checking then true
  else begin
    let a = c.arch in
    let expected =
      match dir with Tx -> a.tx_expected_seqno | Rx -> a.rx_expected_seqno
    in
    if seqno_ok ~expected ~got:desc.seqno then begin
      (match dir with
      | Tx -> a.tx_expected_seqno <- (expected + 1) mod seqno_mod
      | Rx -> a.rx_expected_seqno <- (expected + 1) mod seqno_mod);
      true
    end
    else begin
      fault t c dir
        (Seqno_mismatch { expected = expected mod seqno_mod; got = desc.seqno });
      false
    end
  end

let discard_result (_ : (unit, Bus.Dma_engine.fault) result) = ()

(* The status block is two little-endian u32 counters, [tx_cons] then
   [rx_cons], as of the writeback's submission. *)
let writeback_status t (c : ctx) =
  let a = c.arch in
  match a.status_addr with
  | None -> ()
  | Some addr ->
      Bus.Dma_engine.write_u32_pair t.dma ~context:(dma_ctx t c) ~addr
        a.tx_cons a.rx_cons discard_result

(* ---------- Transmit pipeline ---------- *)

let ensure_capacity buf ~len ~keep =
  if Bytes.length buf >= len then buf
  else begin
    let cap = Int.max len (Int.max 2048 (2 * Bytes.length buf)) in
    let b = Bytes.create cap in
    if keep > 0 then Bytes.blit buf 0 b 0 keep;
    b
  end

let tx_work_available (c : ctx) =
  c.active && (not c.faulted)
  &&
  let a = c.arch in
  a.tx_ring <> None && a.tx_fetch_next < a.tx_prod

(* Round-robin pick of the next context with work, scanning from
   [rr + 1]: the CDNA NIC "services all of the hardware contexts
   fairly". Returns the context's index, or -1. [rr] is a context
   index, so one wrap check per step keeps [j] in range. *)
let[@cdna.hot] rec scan_ctx t ~has_work j remaining =
  if remaining = 0 then -1
  else if has_work t.ctxs.(j) then j
  else
    let j = j + 1 in
    scan_ctx t ~has_work
      (if j = Array.length t.ctxs then 0 else j)
      (remaining - 1)

let[@cdna.hot] pick_ctx t ~rr ~has_work =
  let n = Array.length t.ctxs in
  scan_ctx t ~has_work (if rr + 1 = n then 0 else rr + 1) n

let[@cdna.hot] rec run_tx_fetch t =
  if t.fetch_ctx >= 0 || Sim.Fifo.length t.ready >= ready_depth then ()
  else
    let i = pick_ctx t ~rr:t.tx_rr ~has_work:tx_work_available in
    if i >= 0 then begin
      let c = t.ctxs.(i) in
      let first_fragment = c.sg_frag_descs = 0 in
      (* The reservation itself is the admission check: if it fails the
         fetch stage stalls until the wire stage frees buffer space (a
         wire completion re-runs the fetch stage). Ignoring a failed
         reservation here would make the wire stage's later release
         underflow the shared-buffer accounting. *)
      if
        first_fragment
        && not (Pkt_buf.try_reserve t.tx_buf ~bytes:max_frame_bytes)
      then () (* stalled until the wire stage frees buffer space *)
      else begin
        t.tx_rr <- c.id;
        t.fetch_ctx <- c.id;
        t.fetch_checked <- false;
        t.fetch_epoch <- c.epoch;
        let a = c.arch in
        let idx = a.tx_fetch_next in
        a.tx_fetch_next <- idx + 1;
        match a.tx_ring with
        | None -> assert false (* [tx_work_available] saw a ring *)
        | Some ring ->
            t.fetch_daddr <- Ring.slot_addr ring idx;
            Bus.Dma_engine.access t.dma ~context:(dma_ctx t c)
              ~addr:t.fetch_daddr
              ~len:t.cfg.Nic_config.desc_layout.Memory.Desc_layout.size
              t.k_fetch_desc
      end
    end

and abandon_fetch t c =
  c.sg_len <- 0;
  c.sg_frag_descs <- 0;
  Pkt_buf.release t.tx_buf ~bytes:max_frame_bytes;
  t.fetch_ctx <- -1;
  run_tx_fetch t

and fetch_descriptor_done t res =
  let c = t.ctxs.(t.fetch_ctx) in
  if c.epoch <> t.fetch_epoch then abandon_fetch t c
  else
    match res with
    | Error e ->
        fault t c Tx (Dma_fault e);
        abandon_fetch t c
    | Ok () ->
        let desc =
          Memory.Desc_layout.read t.cfg.Nic_config.desc_layout t.mem
            ~at:t.fetch_daddr
        in
        if not (check_seqno t c Tx desc) then abandon_fetch t c
        else begin
          t.fetch_checked <- true;
          t.fetch_len <- desc.len;
          t.fetch_flags <- desc.flags;
          if t.cfg.Nic_config.materialize_payloads then begin
            (* Fragment bytes land directly in the assembly buffer at
               completion time; grow it before submitting, never while
               the DMA is in flight. *)
            c.sg_buf <-
              ensure_capacity c.sg_buf ~len:(c.sg_len + desc.len)
                ~keep:c.sg_len;
            Bus.Dma_engine.read_into t.dma ~context:(dma_ctx t c)
              ~addr:desc.addr ~len:desc.len ~dst:c.sg_buf ~pos:c.sg_len
              t.k_fetch_payload
          end
          else
            Bus.Dma_engine.access t.dma ~context:(dma_ctx t c)
              ~addr:desc.addr ~len:desc.len t.k_fetch_payload
        end

and fetch_payload_done t res =
  let c = t.ctxs.(t.fetch_ctx) in
  let epoch = t.fetch_epoch in
  if c.epoch <> epoch then abandon_fetch t c
  else
    match res with
    | Error e ->
        fault t c Tx (Dma_fault e);
        abandon_fetch t c
    | Ok () ->
        let a = c.arch in
        if t.cfg.Nic_config.materialize_payloads then
          c.sg_len <- c.sg_len + t.fetch_len;
        c.sg_frag_descs <- c.sg_frag_descs + 1;
        if t.fetch_flags land Memory.Dma_desc.flag_end_of_packet = 0 then begin
          (* Scatter/gather: more fragments follow. Release the fetch
             engine; the next descriptor of this packet (or another
             context's work) proceeds. *)
          t.fetch_ctx <- -1;
          run_tx_fetch t
        end
        else if Sim.Fifo.is_empty a.tx_meta then begin
          fault t c Tx Missing_meta;
          abandon_fetch t c
        end
        else
          (* The packet is fully assembled. The frame carries whatever
             bytes were actually in host memory; a corrupt descriptor
             shows up at the receiver as a payload mismatch. One copy
             per packet here, since the frame outlives the reusable
             assembly buffer. *)
          let frame = Sim.Fifo.pop a.tx_meta in
          let total = c.sg_len in
          let n_descs = c.sg_frag_descs in
          c.sg_len <- 0;
          c.sg_frag_descs <- 0;
          let frame =
            if t.cfg.Nic_config.materialize_payloads then
              { frame with Ethernet.Frame.data = Some (Bytes.sub c.sg_buf 0 total) }
            else frame
          in
          (* Adjust the optimistic reservation to the real footprint
             (TSO super-frames can exceed it). *)
          let actual = Ethernet.Frame.wire_bytes frame + 20 in
          let reserved =
            if actual <= max_frame_bytes then begin
              Pkt_buf.release t.tx_buf ~bytes:(max_frame_bytes - actual);
              actual
            end
            else if
              Pkt_buf.try_reserve t.tx_buf ~bytes:(actual - max_frame_bytes)
            then actual
            else max_frame_bytes
          in
          Sim.Fifo.push t.ready (c.id, epoch, frame, reserved, n_descs);
          t.fetch_ctx <- -1;
          run_tx_wire t;
          run_tx_fetch t

and run_tx_wire t =
  match t.link with
  | None -> ()
  | Some (link, side) ->
      if t.wire_cur >= 0 || Sim.Fifo.is_empty t.ready then ()
      else begin
        let cid, epoch, frame, reserved, n_descs = Sim.Fifo.pop t.ready in
        let c = t.ctxs.(cid) in
        if c.epoch <> epoch then begin
          (* Context revoked while staged: shut down the pending op. *)
          Pkt_buf.release t.tx_buf ~bytes:reserved;
          run_tx_wire t
        end
        else begin
          t.wire_cur <- cid;
          t.wire_epoch <- epoch;
          t.wire_descs <- n_descs;
          t.wire_frame <- frame;
          t.wire_reserved <- reserved;
          Ethernet.Link.send link ~from:side frame ~on_wire_free:t.k_wire_free
        end
      end

and wire_free t () =
  let c = t.ctxs.(t.wire_cur) in
  let epoch = t.wire_epoch and n_descs = t.wire_descs in
  let frame = t.wire_frame in
  t.wire_cur <- -1;
  Pkt_buf.release t.tx_buf ~bytes:t.wire_reserved;
  t.s_tx_frames <- t.s_tx_frames + 1;
  t.s_tx_bytes <- t.s_tx_bytes + frame.Ethernet.Frame.payload_len;
  if c.epoch = epoch then begin
    if Sim.Trace.enabled () then
      trace_event t ~tid:c.id
        ~args:
          [
            ("ctx", Sim.Trace.Int c.id);
            ("seq", Sim.Trace.Int frame.Ethernet.Frame.seq);
            ("len", Sim.Trace.Int frame.Ethernet.Frame.payload_len);
          ]
        "tx";
    let a = c.arch in
    a.tx_frames <- a.tx_frames + 1;
    a.tx_cons <- a.tx_cons + n_descs;
    a.tx_completed_unread <- a.tx_completed_unread + n_descs;
    writeback_status t c;
    t.notify ~ctx:c.id
  end;
  run_tx_wire t;
  run_tx_fetch t

(* ---------- Receive path ---------- *)

let rx_work_available (c : ctx) =
  c.active && (not c.faulted)
  && (not (Sim.Fifo.is_empty c.rx_backlog))
  &&
  let a = c.arch in
  a.rx_ring <> None && a.rx_use_next < a.rx_prod

let[@cdna.hot] rec run_rx t =
  if t.rx_busy then ()
  else
    let i = pick_ctx t ~rr:t.rx_rr ~has_work:rx_work_available in
    if i >= 0 then begin
      let c = t.ctxs.(i) in
      t.rx_rr <- c.id;
      t.rx_busy <- true;
      let frame, epoch = Sim.Fifo.pop c.rx_backlog in
      if epoch <> c.epoch then begin
        (* Stale after revocation (normally cleared there already). *)
        release_rx_bytes t (Ethernet.Frame.wire_bytes frame);
        t.rx_busy <- false;
        run_rx t
      end
      else begin
        let a = c.arch in
        let idx = a.rx_use_next in
        a.rx_use_next <- idx + 1;
        t.rx_cur <- c.id;
        t.rx_epoch <- epoch;
        t.rx_cur_checked <- false;
        t.rx_idx <- idx;
        t.rx_frame <- frame;
        match a.rx_ring with
        | None -> assert false (* [rx_work_available] saw a ring *)
        | Some ring ->
            t.rx_daddr <- Ring.slot_addr ring idx;
            Bus.Dma_engine.access t.dma ~context:(dma_ctx t c)
              ~addr:t.rx_daddr
              ~len:t.cfg.Nic_config.desc_layout.Memory.Desc_layout.size
              t.k_rx_desc
      end
    end

and rx_abandon t =
  release_rx_bytes t (Ethernet.Frame.wire_bytes t.rx_frame);
  t.rx_busy <- false;
  t.rx_cur <- -1;
  run_rx t

and rx_descriptor_done t res =
  let c = t.ctxs.(t.rx_cur) in
  if c.epoch <> t.rx_epoch then rx_abandon t
  else
    match res with
    | Error e ->
        fault t c Rx (Dma_fault e);
        rx_abandon t
    | Ok () ->
        let desc =
          Memory.Desc_layout.read t.cfg.Nic_config.desc_layout t.mem
            ~at:t.rx_daddr
        in
        if not (check_seqno t c Rx desc) then rx_abandon t
        else begin
          t.rx_cur_checked <- true;
          let frame = t.rx_frame in
          let len = Int.min frame.Ethernet.Frame.payload_len desc.len in
          t.rx_len <- len;
          if t.cfg.Nic_config.materialize_payloads then begin
            (* Deliver through the per-NIC staging buffer: spec-only
               frames generate their payload straight into it, frames
               that already carry bytes are staged (and truncated to the
               posted buffer) without a fresh allocation. [rx_busy] keeps
               the scratch untouched until the delivery completes. *)
            (match frame.Ethernet.Frame.data with
            | None ->
                t.rx_scratch <- ensure_capacity t.rx_scratch ~len ~keep:0;
                Ethernet.Frame.blit_payload ~seed:frame.Ethernet.Frame.payload_seed
                  ~len t.rx_scratch ~pos:0
            | Some data ->
                t.rx_scratch <- ensure_capacity t.rx_scratch ~len ~keep:0;
                Bytes.blit data 0 t.rx_scratch 0 len);
            Bus.Dma_engine.write_from t.dma ~context:(dma_ctx t c)
              ~addr:desc.addr ~src:t.rx_scratch ~pos:0 ~len t.k_rx_deliver
          end
          else
            Bus.Dma_engine.access t.dma ~context:(dma_ctx t c) ~addr:desc.addr
              ~len t.k_rx_deliver
        end

and rx_deliver_done t res =
  let c = t.ctxs.(t.rx_cur) in
  if c.epoch <> t.rx_epoch then rx_abandon t
  else
    match res with
    | Error e ->
        fault t c Rx (Dma_fault e);
        rx_abandon t
    | Ok () ->
        let frame = t.rx_frame and len = t.rx_len in
        release_rx_bytes t (Ethernet.Frame.wire_bytes frame);
        if Sim.Trace.enabled () then
          trace_event t ~tid:c.id
            ~args:
              [
                ("ctx", Sim.Trace.Int c.id);
                ("seq", Sim.Trace.Int frame.Ethernet.Frame.seq);
                ("len", Sim.Trace.Int len);
              ]
            "rx";
        let a = c.arch in
        a.rx_cons <- a.rx_cons + 1;
        a.rx_frames <- a.rx_frames + 1;
        t.s_rx_frames <- t.s_rx_frames + 1;
        (* Only the bytes that fit the posted buffer were delivered; a
           short descriptor truncates the frame. *)
        t.s_rx_bytes <- t.s_rx_bytes + len;
        if len < frame.Ethernet.Frame.payload_len then
          t.s_truncated <- t.s_truncated + 1;
        Sim.Fifo.push a.rx_completions (t.rx_idx, frame);
        writeback_status t c;
        t.notify ~ctx:c.id;
        t.rx_busy <- false;
        t.rx_cur <- -1;
        run_rx t

(* Whether slot [c] is up with MAC [dst]. [mac_table] maps a MAC to the
   slot it was last bound to, and nothing unbinds it: that slot may since
   have been revoked, or detached and taken by another guest. Keeping the
   binding lets a page-in rebind the MAC in place. *)
let holds (c : ctx) dst =
  c.active
  &&
  match c.arch.mac with
  | Some mac -> Int.equal (Ethernet.Mac_addr.to_int48 mac) dst
  | None -> false

let on_rx_frame t frame =
  let dst = Ethernet.Mac_addr.to_int48 frame.Ethernet.Frame.dst in
  let target =
    match Sim.Int_tbl.find_opt t.mac_table dst with
    | Some i when holds t.ctxs.(i) dst -> i
    | Some _ | None -> (
        match t.promiscuous with
        | Some i when t.ctxs.(i).active -> i
        | Some _ | None -> -1)
  in
  if target < 0 then t.s_no_ctx <- t.s_no_ctx + 1
  else begin
    let c = t.ctxs.(target) in
    if reserve_rx_bytes t (Ethernet.Frame.wire_bytes frame) then begin
      Sim.Fifo.push c.rx_backlog (frame, c.epoch);
      run_rx t
    end
    else t.s_overflow <- t.s_overflow + 1
  end

let no_wire_free () = ()

let create engine ~mem ~dma ~config ~contexts ~dma_context_base ~notify
    ~on_fault () =
  if contexts <= 0 || contexts > 32 then
    invalid_arg "Dp.create: contexts out of range";
  let t =
    {
      engine;
      mem;
      dma;
      cfg = config;
      dma_context_base;
      notify;
      on_fault;
      ctxs = Array.init contexts make_ctx;
      mac_table = Sim.Int_tbl.create 64;
      promiscuous = None;
      tx_buf = Pkt_buf.create ~capacity:config.Nic_config.tx_buffer_bytes;
      rx_buf = Pkt_buf.create ~capacity:config.Nic_config.rx_buffer_bytes;
      rx_scratch = Bytes.empty;
      link = None;
      ready = Sim.Fifo.create ~dummy:no_ready;
      fetch_ctx = -1;
      fetch_checked = false;
      fetch_epoch = 0;
      fetch_daddr = 0;
      fetch_len = 0;
      fetch_flags = 0;
      k_fetch_desc = discard_result;
      k_fetch_payload = discard_result;
      wire_cur = -1;
      wire_epoch = 0;
      wire_descs = 0;
      wire_frame = Ethernet.Frame.placeholder;
      wire_reserved = 0;
      k_wire_free = no_wire_free;
      tx_rr = 0;
      rx_busy = false;
      rx_cur = -1;
      rx_epoch = 0;
      rx_cur_checked = false;
      rx_idx = 0;
      rx_daddr = 0;
      rx_frame = Ethernet.Frame.placeholder;
      rx_len = 0;
      k_rx_desc = discard_result;
      k_rx_deliver = discard_result;
      rx_rr = 0;
      congested = false;
      uncongested_hook = (fun () -> ());
      s_tx_frames = 0;
      s_tx_bytes = 0;
      s_rx_frames = 0;
      s_rx_bytes = 0;
      s_no_ctx = 0;
      s_overflow = 0;
      s_truncated = 0;
      s_faults = 0;
      spares = [||];
      n_spares = 0;
    }
  in
  (* The stage continuations, built once per NIC. *)
  t.k_fetch_desc <- fetch_descriptor_done t;
  t.k_fetch_payload <- fetch_payload_done t;
  t.k_wire_free <- wire_free t;
  t.k_rx_desc <- rx_descriptor_done t;
  t.k_rx_deliver <- rx_deliver_done t;
  t

let attach_link t link ~side =
  t.link <- Some (link, side);
  Ethernet.Link.attach link side (fun frame -> on_rx_frame t frame)

(* ---------- Context control ---------- *)

let activate t ~ctx:i ~mac =
  let c = ctx t i in
  if c.active then invalid_arg "Dp.activate: context already active";
  if Sim.Trace.enabled () then
    trace_event t ~tid:i
      ~args:
        [
          ("ctx", Sim.Trace.Int i);
          ("mac", Sim.Trace.Str (Ethernet.Mac_addr.to_string mac));
        ]
      "activate";
  c.active <- true;
  c.faulted <- false;
  c.arch.mac <- Some mac;
  Sim.Int_tbl.replace t.mac_table (Ethernet.Mac_addr.to_int48 mac) i;
  run_tx_fetch t;
  run_rx t

(* Reset the slot itself: inactive, a new epoch, so that every in-flight
   event for it is dropped, no packet in assembly and no receive
   backlog. The record on it is the caller's business. *)
let[@cdna.hot] vacate t c =
  c.active <- false;
  c.faulted <- false;
  c.epoch <- c.epoch + 1;
  (* A packet abandoned mid-assembly holds a transmit-buffer
     reservation; release it here unless an in-flight fetch for this
     context will do so when its completion observes the epoch bump. *)
  if c.sg_frag_descs > 0 && not (Int.equal t.fetch_ctx c.id) then
    Pkt_buf.release t.tx_buf ~bytes:max_frame_bytes;
  c.sg_len <- 0;
  c.sg_frag_descs <- 0;
  while not (Sim.Fifo.is_empty c.rx_backlog) do
    let frame, _ = Sim.Fifo.pop c.rx_backlog in
    release_rx_bytes t (Ethernet.Frame.wire_bytes frame)
  done

(* The slot gets a reset record that keeps the frame counters, and the
   MAC binding stays (see [holds]). *)
let deactivate t ~ctx:i =
  let c = ctx t i in
  if c.active || c.faulted then begin
    vacate t c;
    let a = make_arch () in
    a.tx_frames <- c.arch.tx_frames;
    a.rx_frames <- c.arch.rx_frames;
    c.arch <- a
  end

(* ---------- Context paging (detach/attach) ---------- *)

let new_spare t =
  let a = make_arch () in
  if Array.length t.spares = 0 then
    t.spares <- Array.make (Array.length t.ctxs) a;
  a

(* A reset record, with zero frame counters, for a slot that [detach]
   vacates: one that [attach] displaced, or a new one when none is left.
   A displaced record is a vacant slot's, which nothing writes but the
   counters [deactivate] carries over. A pair of swaps leaves the list
   as it found it. *)
let[@cdna.hot] take_spare t =
  if t.n_spares = 0 then
    (new_spare t
    [@cdna.alloc_ok
      "the free list fills lazily: a record is made only when no displaced \
       one is left"])
  else begin
    t.n_spares <- t.n_spares - 1;
    let a = t.spares.(t.n_spares) in
    a.tx_frames <- 0;
    a.rx_frames <- 0;
    a
  end

(* Page a context out: hand its guest's record out and leave the slot
   reset, so the hypervisor can later [attach] the record to any free
   slot without losing transmit work.

   Transmit must be lossless (guests have no retransmit path), so the
   record is rolled back, in place, over everything the engine consumed
   but did not finish wiring: staged ready-FIFO packets (their metas go
   back ahead of those still queued), partially assembled scatter/gather
   fragments, and the in-flight descriptor fetch if any. The one frame
   on the wire is instead credited as completed: its bits are already
   leaving the NIC, and its completion will observe the epoch bump and
   skip the accounting done here. Receive is allowed to be lossy (peers
   retransmit); only an in-flight descriptor fetch that has not yet
   consumed a seqno rolls the cursor back, keeping cursor and seqno in
   lockstep. *)
let[@cdna.hot] [@cdna.acquires "dp-image"] detach t ~ctx:i =
  let c = ctx t i in
  if not c.active then invalid_arg "Dp.detach: context not active";
  if c.faulted then invalid_arg "Dp.detach: context faulted";
  let a = c.arch and epoch = c.epoch in
  let queued = Sim.Fifo.length a.tx_meta in
  let ready_descs = ref 0 in
  for _ = 1 to Sim.Fifo.length t.ready do
    let ((cid, ep, frame, _, n) as staged) = Sim.Fifo.pop t.ready in
    if Int.equal cid i && ep = epoch then begin
      ready_descs := !ready_descs + n;
      Sim.Fifo.push a.tx_meta frame
    end;
    Sim.Fifo.push t.ready staged
  done;
  for _ = 1 to queued do
    Sim.Fifo.push a.tx_meta (Sim.Fifo.pop a.tx_meta)
  done;
  let in_fetch = Int.equal t.fetch_ctx i in
  let rollback_cursor =
    !ready_descs + c.sg_frag_descs + if in_fetch then 1 else 0
  in
  let rollback_seq =
    !ready_descs + c.sg_frag_descs
    + if in_fetch && t.fetch_checked then 1 else 0
  in
  a.tx_fetch_next <- a.tx_fetch_next - rollback_cursor;
  a.tx_expected_seqno <-
    (((a.tx_expected_seqno - rollback_seq) mod seqno_mod) + seqno_mod)
    mod seqno_mod;
  if Int.equal t.wire_cur i && t.wire_epoch = epoch && t.wire_descs > 0
  then begin
    a.tx_cons <- a.tx_cons + t.wire_descs;
    a.tx_completed_unread <- a.tx_completed_unread + t.wire_descs;
    a.tx_frames <- a.tx_frames + 1
  end;
  if Int.equal t.rx_cur i && t.rx_epoch = epoch && not t.rx_cur_checked then
    a.rx_use_next <- a.rx_use_next - 1;
  if Sim.Trace.enabled () then
    (trace_event t ~tid:i
       ~args:
         [
           ("ctx", Sim.Trace.Int i);
           ("rollback_descs", Sim.Trace.Int rollback_cursor);
         ]
       "ctx-save"
    [@cdna.alloc_ok "tracing branch, off unless tracing is on"]);
  vacate t c;
  c.arch <- take_spare t;
  a

(* Install a detached record on a reset slot. Its ring geometry, cursors
   and expected seqnos are installed as they are (hardware-side, not
   through the doorbell paths, which reject producer rewinds), then the
   engines are kicked to resume exactly where the detach left off. *)
let[@cdna.hot] [@cdna.releases "dp-image@1"] attach t ~ctx:i a =
  let c = ctx t i in
  if c.active || c.faulted then invalid_arg "Dp.attach: slot not reset";
  if Sim.Trace.enabled () then
    (trace_event t ~tid:i ~args:[ ("ctx", Sim.Trace.Int i) ] "ctx-restore"
    [@cdna.alloc_ok "tracing branch, off unless tracing is on"]);
  if t.n_spares < Array.length t.spares then begin
    t.spares.(t.n_spares) <- c.arch;
    t.n_spares <- t.n_spares + 1
  end;
  c.arch <- a;
  c.active <- true;
  (match a.mac with
  | Some mac ->
      (Sim.Int_tbl.replace t.mac_table (Ethernet.Mac_addr.to_int48 mac) i
      [@cdna.alloc_ok
        "the MAC is still bound from before the detach, so this replaces \
         in place"])
  | None -> ());
  (* Completions that were pending at detach may have had their
     interrupt consumed before the swap; re-notify so the driver drains
     them (coalescing absorbs any redundancy). *)
  if a.tx_completed_unread > 0 || not (Sim.Fifo.is_empty a.rx_completions)
  then t.notify ~ctx:i;
  run_tx_fetch t;
  run_rx t

let arch_of t ~ctx:i = (ctx t i).arch
let is_active t ~ctx:i = (ctx t i).active
let mac_of t ~ctx:i = (ctx t i).arch.mac

let set_promiscuous t ~ctx:i =
  (match i with Some i -> ignore (ctx t i) | None -> ());
  t.promiscuous <- i

let is_faulted t ~ctx:i = (ctx t i).faulted

let set_tx_ring t ~ctx:i ring = (ctx t i).arch.tx_ring <- Some ring
let set_rx_ring t ~ctx:i ring = (ctx t i).arch.rx_ring <- Some ring
let set_status_addr t ~ctx:i addr = (ctx t i).arch.status_addr <- Some addr

(* A producer index is the guest's to write, so one that goes backwards
   faults the guest's context rather than the simulation. *)
let tx_doorbell t ~ctx:i ~prod =
  let c = ctx t i in
  let a = c.arch in
  if prod < a.tx_prod then
    fault t c Tx (Producer_backwards { published = a.tx_prod; prod })
  else begin
    a.tx_prod <- prod;
    run_tx_fetch t
  end

let rx_doorbell t ~ctx:i ~prod =
  let c = ctx t i in
  let a = c.arch in
  if prod < a.rx_prod then
    fault t c Rx (Producer_backwards { published = a.rx_prod; prod })
  else begin
    a.rx_prod <- prod;
    run_rx t
  end

let stage_tx_meta t ~ctx:i frame = Sim.Fifo.push (ctx t i).arch.tx_meta frame

let take_tx_completions t ~ctx:i =
  let a = (ctx t i).arch in
  let n = a.tx_completed_unread in
  a.tx_completed_unread <- 0;
  n

let take_rx_completions t ~ctx:i ~max =
  let q = (ctx t i).arch.rx_completions in
  let rec drain n acc =
    if n = 0 || Sim.Fifo.is_empty q then List.rev acc
    else drain (n - 1) (Sim.Fifo.pop q :: acc)
  in
  drain max []

let rx_completions_pending t ~ctx:i =
  Sim.Fifo.length (ctx t i).arch.rx_completions

let rx_congested t = t.congested
let set_uncongested_hook t f = t.uncongested_hook <- f

let tx_buffer_in_use t = Pkt_buf.in_use t.tx_buf
let rx_buffer_in_use t = Pkt_buf.in_use t.rx_buf

let register_metrics t m ~labels =
  let g name read = Sim.Metrics.gauge m ~labels name read in
  g "nic.tx_frames" (fun () -> t.s_tx_frames);
  g "nic.tx_bytes" (fun () -> t.s_tx_bytes);
  g "nic.rx_frames" (fun () -> t.s_rx_frames);
  g "nic.rx_bytes" (fun () -> t.s_rx_bytes);
  g "nic.rx_no_ctx_drops" (fun () -> t.s_no_ctx);
  g "nic.rx_overflow_drops" (fun () -> t.s_overflow);
  g "nic.rx_truncated" (fun () -> t.s_truncated);
  g "nic.faults" (fun () -> t.s_faults);
  Array.iter
    (fun c ->
      let labels = labels @ [ ("ctx", string_of_int c.id) ] in
      Sim.Metrics.gauge m ~labels "nic.ctx.tx_frames" (fun () ->
          c.arch.tx_frames);
      Sim.Metrics.gauge m ~labels "nic.ctx.rx_frames" (fun () ->
          c.arch.rx_frames))
    t.ctxs
