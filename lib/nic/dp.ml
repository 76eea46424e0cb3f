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

type ctx = {
  id : int;
  mutable active : bool;
  mutable faulted : bool;
  mutable epoch : int;
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
  (* Scatter/gather assembly: payload fragments of the packet being
     assembled land in [sg_buf[0, sg_len)] (grow-on-demand, reused across
     packets) until a descriptor with the end-of-packet flag arrives.
     Safe because the fetch engine admits one fragment DMA at a time
     ([fetch_busy]), so the buffer is never grown under an in-flight
     [read_into]. *)
  mutable sg_buf : Bytes.t;
  mutable sg_len : int;
  mutable sg_frag_descs : int;
  rx_backlog : (Ethernet.Frame.t * int) Sim.Fifo.t; (* frame, epoch *)
  mutable tx_completed_unread : int;
  rx_completions : (int * Ethernet.Frame.t) Sim.Fifo.t;
  mutable tx_frames : int;
  mutable rx_frames : int;
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
  (* Each stage has at most one operation in flight ([fetch_busy],
     [wire_busy], [rx_busy]); its state lives in the fields below and
     its continuations are built once in [create]. *)
  mutable fetch_busy : bool;
  mutable fetch_ctx : int; (* context the in-flight fetch serves, or -1 *)
  (* Whether the in-flight fetch already consumed a sequence number (its
     descriptor passed [check_seqno] and the payload DMA is in flight).
     Context save needs this to roll the expected seqno back exactly. *)
  mutable fetch_checked : bool;
  mutable fetch_epoch : int;
  mutable fetch_daddr : Memory.Addr.t;
  (* Fragment length and flags of the descriptor whose payload is in
     flight. *)
  mutable fetch_len : int;
  mutable fetch_flags : int;
  mutable k_fetch_desc : (unit, Bus.Dma_engine.fault) result -> unit;
  mutable k_fetch_payload : (unit, Bus.Dma_engine.fault) result -> unit;
  mutable wire_busy : bool;
  (* Context (or -1), epoch and descriptors of the frame currently on
     the wire; context save credits it as completed since the bits are
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
}

(* The dummies that fill the queues' vacated slots. *)
let no_backlog = (Ethernet.Frame.placeholder, 0)
let no_completion = (0, Ethernet.Frame.placeholder)
let no_ready = (-1, 0, Ethernet.Frame.placeholder, 0, 0)

let make_ctx id =
  {
    id;
    active = false;
    faulted = false;
    epoch = 0;
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
    sg_buf = Bytes.empty;
    sg_len = 0;
    sg_frag_descs = 0;
    rx_backlog = Sim.Fifo.create ~dummy:no_backlog;
    tx_completed_unread = 0;
    rx_completions = Sim.Fifo.create ~dummy:no_completion;
    tx_frames = 0;
    rx_frames = 0;
  }

let config t = t.cfg
let contexts t = Array.length t.ctxs
let dma t = t.dma
let dma_context t ~ctx = t.dma_context_base + ctx

let ctx t i =
  if i < 0 || i >= Array.length t.ctxs then
    invalid_arg "Dp: context out of range";
  t.ctxs.(i)

let dma_ctx t (c : ctx) = t.dma_context_base + c.id

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
let lo_watermark t = Pkt_buf.capacity t.rx_buf / 2

let release_rx_bytes t bytes =
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
    let expected =
      match dir with Tx -> c.tx_expected_seqno | Rx -> c.rx_expected_seqno
    in
    if seqno_ok ~expected ~got:desc.seqno then begin
      (match dir with
      | Tx -> c.tx_expected_seqno <- (expected + 1) mod seqno_mod
      | Rx -> c.rx_expected_seqno <- (expected + 1) mod seqno_mod);
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
  match c.status_addr with
  | None -> ()
  | Some addr ->
      Bus.Dma_engine.write_u32_pair t.dma ~context:(dma_ctx t c) ~addr
        c.tx_cons c.rx_cons discard_result

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
  c.active && (not c.faulted) && c.tx_ring <> None
  && c.tx_fetch_next < c.tx_prod

(* Round-robin pick of the next context with work, scanning from
   [rr + 1]: the CDNA NIC "services all of the hardware contexts
   fairly". Returns the context's index, or -1. [rr] is a context
   index, so one wrap check per step keeps [j] in range. *)
let rec scan_ctx t ~has_work j remaining =
  if remaining = 0 then -1
  else if has_work t.ctxs.(j) then j
  else
    let j = j + 1 in
    scan_ctx t ~has_work
      (if j = Array.length t.ctxs then 0 else j)
      (remaining - 1)

let pick_ctx t ~rr ~has_work =
  let n = Array.length t.ctxs in
  scan_ctx t ~has_work (if rr + 1 = n then 0 else rr + 1) n

let rec run_tx_fetch t =
  if t.fetch_busy || Sim.Fifo.length t.ready >= ready_depth then ()
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
        t.fetch_busy <- true;
        t.fetch_ctx <- c.id;
        t.fetch_checked <- false;
        t.fetch_epoch <- c.epoch;
        let idx = c.tx_fetch_next in
        c.tx_fetch_next <- idx + 1;
        let ring = Option.get c.tx_ring in
        t.fetch_daddr <- Ring.slot_addr ring idx;
        Bus.Dma_engine.access t.dma ~context:(dma_ctx t c) ~addr:t.fetch_daddr
          ~len:t.cfg.Nic_config.desc_layout.Memory.Desc_layout.size
          t.k_fetch_desc
      end
    end

and abandon_fetch t c =
  c.sg_len <- 0;
  c.sg_frag_descs <- 0;
  Pkt_buf.release t.tx_buf ~bytes:max_frame_bytes;
  t.fetch_busy <- false;
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
        if t.cfg.Nic_config.materialize_payloads then
          c.sg_len <- c.sg_len + t.fetch_len;
        c.sg_frag_descs <- c.sg_frag_descs + 1;
        if t.fetch_flags land Memory.Dma_desc.flag_end_of_packet = 0 then begin
          (* Scatter/gather: more fragments follow. Release the fetch
             engine; the next descriptor of this packet (or another
             context's work) proceeds. *)
          t.fetch_busy <- false;
          t.fetch_ctx <- -1;
          run_tx_fetch t
        end
        else if Sim.Fifo.is_empty c.tx_meta then begin
          fault t c Tx Missing_meta;
          abandon_fetch t c
        end
        else
          (* The packet is fully assembled. The frame carries whatever
             bytes were actually in host memory; a corrupt descriptor
             shows up at the receiver as a payload mismatch. One copy
             per packet here, since the frame outlives the reusable
             assembly buffer. *)
          let frame = Sim.Fifo.pop c.tx_meta in
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
          t.fetch_busy <- false;
          t.fetch_ctx <- -1;
          run_tx_wire t;
          run_tx_fetch t

and run_tx_wire t =
  match t.link with
  | None -> ()
  | Some (link, side) ->
      if t.wire_busy || Sim.Fifo.is_empty t.ready then ()
      else begin
        let cid, epoch, frame, reserved, n_descs = Sim.Fifo.pop t.ready in
        let c = t.ctxs.(cid) in
        if c.epoch <> epoch then begin
          (* Context revoked while staged: shut down the pending op. *)
          Pkt_buf.release t.tx_buf ~bytes:reserved;
          run_tx_wire t
        end
        else begin
          t.wire_busy <- true;
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
  t.wire_busy <- false;
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
    c.tx_frames <- c.tx_frames + 1;
    c.tx_cons <- c.tx_cons + n_descs;
    c.tx_completed_unread <- c.tx_completed_unread + n_descs;
    writeback_status t c;
    t.notify ~ctx:c.id
  end;
  run_tx_wire t;
  run_tx_fetch t

(* ---------- Receive path ---------- *)

let rx_work_available (c : ctx) =
  c.active && (not c.faulted) && c.rx_ring <> None
  && (not (Sim.Fifo.is_empty c.rx_backlog))
  && c.rx_use_next < c.rx_prod

let rec run_rx t =
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
        let idx = c.rx_use_next in
        c.rx_use_next <- idx + 1;
        t.rx_cur <- c.id;
        t.rx_epoch <- epoch;
        t.rx_cur_checked <- false;
        t.rx_idx <- idx;
        t.rx_frame <- frame;
        let ring = Option.get c.rx_ring in
        t.rx_daddr <- Ring.slot_addr ring idx;
        Bus.Dma_engine.access t.dma ~context:(dma_ctx t c) ~addr:t.rx_daddr
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
        c.rx_cons <- c.rx_cons + 1;
        c.rx_frames <- c.rx_frames + 1;
        t.s_rx_frames <- t.s_rx_frames + 1;
        (* Only the bytes that fit the posted buffer were delivered; a
           short descriptor truncates the frame. *)
        t.s_rx_bytes <- t.s_rx_bytes + len;
        if len < frame.Ethernet.Frame.payload_len then
          t.s_truncated <- t.s_truncated + 1;
        Sim.Fifo.push c.rx_completions (t.rx_idx, frame);
        writeback_status t c;
        t.notify ~ctx:c.id;
        t.rx_busy <- false;
        t.rx_cur <- -1;
        run_rx t

let on_rx_frame t frame =
  let dst = Ethernet.Mac_addr.to_int48 frame.Ethernet.Frame.dst in
  let target =
    match Sim.Int_tbl.find_opt t.mac_table dst with
    | Some i when t.ctxs.(i).active -> i
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
      fetch_busy = false;
      fetch_ctx = -1;
      fetch_checked = false;
      fetch_epoch = 0;
      fetch_daddr = 0;
      fetch_len = 0;
      fetch_flags = 0;
      k_fetch_desc = discard_result;
      k_fetch_payload = discard_result;
      wire_busy = false;
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
  c.mac <- Some mac;
  Sim.Int_tbl.replace t.mac_table (Ethernet.Mac_addr.to_int48 mac) i;
  run_tx_fetch t;
  run_rx t

let deactivate t ~ctx:i =
  let c = ctx t i in
  if c.active || c.faulted then begin
    (match c.mac with
    | Some mac -> (
        let key = Ethernet.Mac_addr.to_int48 mac in
        match Sim.Int_tbl.find_opt t.mac_table key with
        | Some owner when Int.equal owner i -> Sim.Int_tbl.remove t.mac_table key
        | Some _ | None -> ())
    | None -> ());
    c.active <- false;
    c.faulted <- false;
    c.mac <- None;
    c.epoch <- c.epoch + 1;
    (* A packet abandoned mid-assembly holds a transmit-buffer
       reservation; release it here unless an in-flight fetch for this
       context will do so when its completion observes the epoch bump. *)
    if c.sg_frag_descs > 0 && not (Int.equal t.fetch_ctx c.id) then
      Pkt_buf.release t.tx_buf ~bytes:max_frame_bytes;
    Sim.Fifo.iter
      (fun (frame, _) ->
        release_rx_bytes t (Ethernet.Frame.wire_bytes frame))
      c.rx_backlog;
    Sim.Fifo.clear c.rx_backlog;
    Sim.Fifo.clear c.tx_meta;
    c.sg_len <- 0;
    c.sg_frag_descs <- 0;
    Sim.Fifo.clear c.rx_completions;
    c.tx_completed_unread <- 0;
    c.tx_ring <- None;
    c.rx_ring <- None;
    c.status_addr <- None;
    c.tx_prod <- 0;
    c.tx_fetch_next <- 0;
    c.tx_cons <- 0;
    c.rx_prod <- 0;
    c.rx_use_next <- 0;
    c.rx_cons <- 0;
    c.tx_expected_seqno <- 0;
    c.rx_expected_seqno <- 0
  end

(* ---------- Context paging (save/restore) ---------- *)

type saved_ctx = {
  sv_mac : Ethernet.Mac_addr.t option;
  sv_tx_ring : Ring.t option;
  sv_rx_ring : Ring.t option;
  sv_status_addr : Memory.Addr.t option;
  sv_tx_prod : int;
  sv_tx_fetch_next : int;
  sv_tx_cons : int;
  sv_rx_prod : int;
  sv_rx_use_next : int;
  sv_rx_cons : int;
  sv_tx_expected_seqno : int;
  sv_rx_expected_seqno : int;
  sv_tx_meta : Ethernet.Frame.t list;
  sv_tx_completed_unread : int;
  sv_rx_completions : (int * Ethernet.Frame.t) list;
  sv_tx_frames : int;
  sv_rx_frames : int;
}

(* Snapshot a context's architectural state so the hypervisor can page it
   out and later restore it on any free slot, without losing transmit
   work. Read-only: the caller revokes/deactivates the slot afterwards,
   and the normal epoch machinery unwinds whatever is in flight.

   Transmit must be lossless — guests have no retransmit path — so the
   fetch cursor and expected seqno are rolled back over everything the
   engine consumed but did not finish wiring: staged ready-FIFO packets
   (their metas are re-staged for the restore), partially assembled
   scatter/gather fragments, and the in-flight descriptor fetch if any.
   The one frame currently on the wire is instead credited as completed:
   its bits are already leaving the NIC, and its completion callback will
   observe the epoch bump and skip the accounting we do here. Receive is
   allowed to be lossy (peers retransmit); only an in-flight descriptor
   fetch that has not yet consumed a seqno rolls the cursor back, keeping
   cursor and seqno in lockstep. *)
let[@cdna.acquires "dp-image"] save_context t ~ctx:i =
  let c = ctx t i in
  if not c.active then invalid_arg "Dp.save_context: context not active";
  if c.faulted then invalid_arg "Dp.save_context: context faulted";
  let ready_descs = ref 0 and ready_frames = ref [] in
  Sim.Fifo.iter
    (fun (cid, ep, frame, _reserved, n) ->
      if Int.equal cid i && ep = c.epoch then begin
        ready_descs := !ready_descs + n;
        ready_frames := frame :: !ready_frames
      end)
    t.ready;
  let ready_frames = List.rev !ready_frames in
  let in_fetch = t.fetch_busy && Int.equal t.fetch_ctx i in
  let rollback_cursor =
    !ready_descs + c.sg_frag_descs + (if in_fetch then 1 else 0)
  in
  let rollback_seq =
    !ready_descs + c.sg_frag_descs
    + (if in_fetch && t.fetch_checked then 1 else 0)
  in
  let rx_unchecked =
    Int.equal t.rx_cur i && t.rx_epoch = c.epoch && not t.rx_cur_checked
  in
  let wire_descs =
    if Int.equal t.wire_cur i && t.wire_epoch = c.epoch then t.wire_descs
    else 0
  in
  let seq_back s r = (((s - r) mod seqno_mod) + seqno_mod) mod seqno_mod in
  if Sim.Trace.enabled () then
    trace_event t ~tid:i
      ~args:
        [
          ("ctx", Sim.Trace.Int i);
          ("rollback_descs", Sim.Trace.Int rollback_cursor);
        ]
      "ctx-save";
  {
    sv_mac = c.mac;
    sv_tx_ring = c.tx_ring;
    sv_rx_ring = c.rx_ring;
    sv_status_addr = c.status_addr;
    sv_tx_prod = c.tx_prod;
    sv_tx_fetch_next = c.tx_fetch_next - rollback_cursor;
    sv_tx_cons = c.tx_cons + wire_descs;
    sv_rx_prod = c.rx_prod;
    sv_rx_use_next = c.rx_use_next - (if rx_unchecked then 1 else 0);
    sv_rx_cons = c.rx_cons;
    sv_tx_expected_seqno = seq_back c.tx_expected_seqno rollback_seq;
    sv_rx_expected_seqno = c.rx_expected_seqno;
    sv_tx_meta = ready_frames @ List.of_seq (Sim.Fifo.to_seq c.tx_meta);
    sv_tx_completed_unread = c.tx_completed_unread + wire_descs;
    sv_rx_completions = List.of_seq (Sim.Fifo.to_seq c.rx_completions);
    sv_tx_frames = c.tx_frames + (if wire_descs > 0 then 1 else 0);
    sv_rx_frames = c.rx_frames;
  }

(* Install a saved image on a fully reset slot. The ring geometry, the
   cursors and the expected seqnos are written directly (hardware-side
   restore, not driver doorbells — the doorbell paths reject producer
   rewinds by design), then the engines are kicked to resume exactly
   where the save left off. *)
let[@cdna.releases "dp-image@1"] restore_context t ~ctx:i s =
  let c = ctx t i in
  if c.active || c.faulted then
    invalid_arg "Dp.restore_context: slot not reset";
  if Sim.Trace.enabled () then
    trace_event t ~tid:i ~args:[ ("ctx", Sim.Trace.Int i) ] "ctx-restore";
  c.active <- true;
  c.faulted <- false;
  c.mac <- s.sv_mac;
  (match s.sv_mac with
  | Some mac -> Sim.Int_tbl.replace t.mac_table (Ethernet.Mac_addr.to_int48 mac) i
  | None -> ());
  c.tx_ring <- s.sv_tx_ring;
  c.rx_ring <- s.sv_rx_ring;
  c.status_addr <- s.sv_status_addr;
  c.tx_prod <- s.sv_tx_prod;
  c.tx_fetch_next <- s.sv_tx_fetch_next;
  c.tx_cons <- s.sv_tx_cons;
  c.rx_prod <- s.sv_rx_prod;
  c.rx_use_next <- s.sv_rx_use_next;
  c.rx_cons <- s.sv_rx_cons;
  c.tx_expected_seqno <- s.sv_tx_expected_seqno;
  c.rx_expected_seqno <- s.sv_rx_expected_seqno;
  List.iter (Sim.Fifo.push c.tx_meta) s.sv_tx_meta;
  c.tx_completed_unread <- s.sv_tx_completed_unread;
  List.iter (Sim.Fifo.push c.rx_completions) s.sv_rx_completions;
  c.tx_frames <- s.sv_tx_frames;
  c.rx_frames <- s.sv_rx_frames;
  (* Completions that were pending at save time may have had their
     interrupt consumed before the swap; re-notify so the driver drains
     them (coalescing absorbs any redundancy). *)
  if
    s.sv_tx_completed_unread > 0
    || (match s.sv_rx_completions with [] -> false | _ :: _ -> true)
  then t.notify ~ctx:i;
  run_tx_fetch t;
  run_rx t

let is_active t ~ctx:i = (ctx t i).active
let mac_of t ~ctx:i = (ctx t i).mac

let set_promiscuous t ~ctx:i =
  (match i with Some i -> ignore (ctx t i) | None -> ());
  t.promiscuous <- i

let is_faulted t ~ctx:i = (ctx t i).faulted

let set_tx_ring t ~ctx:i ring = (ctx t i).tx_ring <- Some ring
let set_rx_ring t ~ctx:i ring = (ctx t i).rx_ring <- Some ring
let set_status_addr t ~ctx:i addr = (ctx t i).status_addr <- Some addr

let set_expected_seqno t ~ctx:i ~tx ~rx =
  let c = ctx t i in
  c.tx_expected_seqno <- tx mod seqno_mod;
  c.rx_expected_seqno <- rx mod seqno_mod

(* A producer index is the guest's to write, so one that goes backwards
   faults the guest's context rather than the simulation. *)
let tx_doorbell t ~ctx:i ~prod =
  let c = ctx t i in
  if prod < c.tx_prod then
    fault t c Tx (Producer_backwards { published = c.tx_prod; prod })
  else begin
    c.tx_prod <- prod;
    run_tx_fetch t
  end

let rx_doorbell t ~ctx:i ~prod =
  let c = ctx t i in
  if prod < c.rx_prod then
    fault t c Rx (Producer_backwards { published = c.rx_prod; prod })
  else begin
    c.rx_prod <- prod;
    run_rx t
  end

let stage_tx_meta t ~ctx:i frame = Sim.Fifo.push (ctx t i).tx_meta frame

let take_tx_completions t ~ctx:i =
  let c = ctx t i in
  let n = c.tx_completed_unread in
  c.tx_completed_unread <- 0;
  n

let take_rx_completions t ~ctx:i ~max =
  let c = ctx t i in
  let rec drain n acc =
    if n = 0 || Sim.Fifo.is_empty c.rx_completions then List.rev acc
    else drain (n - 1) (Sim.Fifo.pop c.rx_completions :: acc)
  in
  drain max []

let rx_completions_pending t ~ctx:i = Sim.Fifo.length (ctx t i).rx_completions
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
      Sim.Metrics.gauge m ~labels "nic.ctx.tx_frames" (fun () -> c.tx_frames);
      Sim.Metrics.gauge m ~labels "nic.ctx.rx_frames" (fun () -> c.rx_frames))
    t.ctxs
