[@@@cdna.privileged
  "hypervisor core: validates and executes ownership transitions (pin, \
   IOMMU grant/revoke) on behalf of guests; this is the trusted layer the \
   P rules protect"]

type dir = Tx | Rx

type enqueue_error =
  [ `Not_owner of Memory.Addr.pfn
  | `Bad_length
  | `Ring_full
  | `Ring_unregistered
  | `Revoked ]

(* The pages each enqueued descriptor holds, oldest first: a FIFO of
   (ring index, first pfn, page count) int triples, live in
   [buf.(head) .. buf.(tail - 1)]. It starts empty and grows on the first
   pin, like [Sim.Heap]'s free stack. It stays a FIFO rather than a table
   by ring slot: a second [register_ring] restarts the ring indices
   behind the old ring's pins, which stay at the head. *)
type ledger = {
  mutable buf : int array;
  mutable head : int;
  mutable tail : int;
  mutable pages : int; (* page sum over the live entries *)
}

(* Hypervisor-side state of one ring of one context. *)
type ring_state = {
  mutable ring : Nic.Ring.t option;
  mutable prod : int;
  mutable seq : int;
  (* Pages pinned per enqueued descriptor, unpinned lazily when later
     enqueues observe the consumer index has passed them. *)
  pins : ledger;
}

type ctx_handle = {
  nic : Cnic.t;
  (* Slot the handle currently occupies; changes when context paging moves
     the guest to a different hardware context. Meaningless while paged
     out ([resident = false]). *)
  mutable ctx : int;
  guest : Xen.Domain.t;
  mac : Ethernet.Mac_addr.t;
      (* As recorded at assignment; the NIC forgets it at revocation, but
         migration and recovery must keep presenting the same address. *)
  isr_cost : Sim.Time.t;
  mutable mapping : Bus.Mmio.mapping;
  (* [hw] is what the guest driver holds: a stable wrapper that faults the
     context back in before delegating to [hw_live], the interface bound
     to the current slot/mapping. *)
  mutable hw : Nic.Driver_if.t;
  mutable hw_live : Nic.Driver_if.t;
  chan : Xen.Event_channel.t;
  handler : (unit -> unit) ref;
  fault_hook : (unit -> unit) option ref;
  mutable revoked : bool;
  tx : ring_state;
  rx : ring_state;
  mutable status_addr : Memory.Addr.t option;
  (* Context-paging state. *)
  mutable resident : bool;
  mutable saved : Cnic.saved_context option;
  mutable last_use : int; (* LRU clock value of the last hardware access *)
  (* Ring/status pages granted in IOMMU mode (pins track data pages). *)
  mutable granted_extra : Memory.Addr.pfn list;
  (* The guest's mailbox save area, reused by every page-out. *)
  mailbox_save : Nic.Mailbox.saved_partition;
}

type t = {
  xen : Xen.Hypervisor.t;
  costs : Cdna_costs.t;
  protection : Cdna_costs.protection;
  mutable iommu : Memory.Iommu.t option;
  mutable nics : (Cnic.t * ctx_handle option array) list;
  mutable faults : (Host.Category.domain_id * int) list;
  mutable enqueue_calls : int;
  (* Context oversubscription: when [paging] is on, assignment past the
     NIC's context count evicts the least-recently-used resident context
     to a per-guest save area instead of failing. *)
  paging : bool;
  mutable use_clock : int;
  mutable ctx_swaps : int;
  (* [enqueue]'s batch, validated: (first pfn, page count) per
     descriptor, read back by its write loop. Grows to the largest
     batch. *)
  mutable ranges : int array;
}

let trace t fmt_msg =
  Sim.Trace.emit
    ~time:(Sim.Engine.now (Xen.Hypervisor.engine t.xen))
    ~tag:"cdna-hyp" fmt_msg

let create xen ~costs ?(protection = Cdna_costs.Full) ~paging () =
  {
    xen;
    costs;
    protection;
    iommu = None;
    nics = [];
    faults = [];
    enqueue_calls = 0;
    paging;
    use_clock = 0;
    ctx_swaps = 0;
    ranges = [||];
  }

let paging_enabled t = t.paging

let costs t = t.costs
let xen t = t.xen
let mem t = Xen.Hypervisor.mem t.xen

let slots_of t nic =
  match List.find_opt (fun (n, _) -> n == nic) t.nics with
  | Some (_, slots) -> slots
  | None -> invalid_arg "Cdna.Hyp: NIC not registered"

let handle_of t nic ~ctx =
  let slots = slots_of t nic in
  if ctx < 0 || ctx >= Array.length slots then None else slots.(ctx)

(* IOMMU table entries are keyed by the DMA context the NIC transfers
   with: its dma_context_base + hardware context id. *)
let iommu_ctx h = Nic.Dp.dma_context (Cnic.dp h.nic) ~ctx:h.ctx

(* The NIC's descriptor format (paper 3.4): rings are laid out with its
   stride and the hypervisor writes descriptors through it. *)
let desc_layout h = (Nic.Dp.config (Cnic.dp h.nic)).Nic.Nic_config.desc_layout

let add_nic t nic =
  if List.exists (fun (n, _) -> n == nic) t.nics then ()
  else begin
    t.nics <- (nic, Array.make Cnic.num_contexts None) :: t.nics;
    (match t.protection with
    | Cdna_costs.Iommu ->
        let iommu =
          match t.iommu with
          | Some i -> i
          | None ->
              let i = Memory.Iommu.create () in
              t.iommu <- Some i;
              i
        in
        Bus.Dma_engine.set_iommu (Nic.Dp.dma (Cnic.dp nic)) (Some iommu);
        (* The interrupt bit-vector buffer (hypervisor memory) must stay
           reachable by the NIC's interrupt-delivery DMA. *)
        let intr = Cnic.intr_vector nic in
        let first = Memory.Addr.pfn_of (Intr_vector.base intr) in
        let last =
          Memory.Addr.pfn_of
            (Intr_vector.base intr + (Intr_vector.slots intr * 8) - 1)
        in
        for pfn = first to last do
          Memory.Iommu.grant iommu ~context:(Intr_vector.dma_context intr) pfn
        done
    | Cdna_costs.Full | Cdna_costs.Disabled -> ());
    (* Fault reports from the NIC are guest-specific (paper 3.3). The
       per-handle recovery hook runs in a fresh event so that revocation
       does not reenter the datapath mid-fault. *)
    Cnic.set_fault_handler nic (fun ~ctx _dir _fault ->
        match handle_of t nic ~ctx with
        | Some h ->
            t.faults <- (Xen.Domain.id h.guest, ctx) :: t.faults;
            (match !(h.fault_hook) with
            | None -> ()
            | Some hook ->
                Sim.Engine.schedule
                  (Xen.Hypervisor.engine t.xen)
                  ~delay:Sim.Time.zero hook)
        | None -> ());
    (* Physical interrupt -> drain bit vectors -> virtual interrupts. *)
    Xen.Hypervisor.route_irq t.xen (Cnic.irq nic) (fun () ->
        Host.Cpu.post_irq (Xen.Hypervisor.cpu t.xen)
          ~cost:t.costs.Cdna_costs.intr_decode_fixed (fun () ->
            let vectors = Intr_vector.drain (Cnic.intr_vector nic) in
            let bits = List.fold_left ( lor ) 0 vectors in
            trace t (fun () ->
                Printf.sprintf "interrupt: %d vectors, bits=0x%x"
                  (List.length vectors) bits);
            let slots = slots_of t nic in
            Array.iteri
              (fun ctx handle ->
                if bits land (1 lsl ctx) <> 0 then
                  match handle with
                  | Some h when not h.revoked ->
                      Xen.Event_channel.notify_from_hypervisor h.chan
                  | Some _ | None -> ())
              slots))
  end

(* ---------- Pin ledger ---------- *)

(* Room for one more triple: slide the live entries down when at least
   half the array is dead, else double it. *)
let make_room l =
  let live = l.tail - l.head in
  if l.head = 0 || 2 * l.head < Array.length l.buf then begin
    let buf = Array.make (Int.max 24 (2 * Array.length l.buf)) 0 in
    Array.blit l.buf l.head buf 0 live;
    l.buf <- buf
  end
  else Array.blit l.buf l.head l.buf 0 live;
  l.head <- 0;
  l.tail <- live

let[@cdna.hot] ledger_push l ~idx ~first ~pages =
  if l.tail + 3 > Array.length l.buf then
    (make_room l [@cdna.alloc_ok "ledger growth doubles, not steady state"]);
  let i = l.tail in
  l.buf.(i) <- idx;
  l.buf.(i + 1) <- first;
  l.buf.(i + 2) <- pages;
  l.tail <- i + 3;
  l.pages <- l.pages + pages

let[@cdna.hot] ledger_pop l =
  l.pages <- l.pages - l.buf.(l.head + 2);
  let head = l.head + 3 in
  if head = l.tail then begin
    l.head <- 0;
    l.tail <- 0
  end
  else l.head <- head

(* Pages held by the consumed prefix: the entries from the head up to
   the first whose ring index is [cons] or more. *)
let[@cdna.hot] ledger_consumed_pages l ~cons =
  let i = ref l.head and sum = ref 0 in
  while !i < l.tail && l.buf.(!i) < cons do
    sum := !sum + l.buf.(!i + 2);
    i := !i + 3
  done;
  !sum

let fresh_ring_state () =
  {
    ring = None;
    prod = 0;
    seq = 0;
    pins = { buf = [||]; head = 0; tail = 0; pages = 0 };
  }

(* ---------- Context paging (oversubscription) ---------- *)

(* Apply [f] to every page the NIC may DMA on this context's behalf:
   pinned data pages (newest descriptor first, each range downwards)
   plus ring/status pages. Only in IOMMU protection mode, where grants
   are keyed by the (slot-derived) DMA context and must move with the
   guest across slots. *)
let iommu_grants_apply t h ~f =
  match (t.protection, t.iommu) with
  | Cdna_costs.Iommu, Some iommu ->
      let apply pfn = f iommu ~context:(iommu_ctx h) pfn in
      let of_ring rs =
        let l = rs.pins in
        let i = ref (l.tail - 3) in
        while !i >= l.head do
          let first = l.buf.(!i + 1) in
          for pfn = first + l.buf.(!i + 2) - 1 downto first do
            apply pfn
          done;
          i := !i - 3
        done
      in
      of_ring h.tx;
      of_ring h.rx;
      List.iter apply h.granted_extra
  | _ -> ()

(* Swap a resident context out to its handle's save area: snapshot the
   hardware image, revoke the guest's partition mapping, reset the slot.
   Page pins are kept — the guest still owns its rings and buffers; only
   the hardware residency changes (paper-style revocation plus SuperNIC's
   oversubscription argument). *)
let page_out t victim =
  let nic = victim.nic in
  trace t (fun () ->
      Printf.sprintf "page-out dom%d ctx%d"
        (Xen.Domain.id victim.guest)
        victim.ctx);
  let image =
    Cnic.save_context nic ~ctx:victim.ctx ~mailbox:victim.mailbox_save
  in
  Bus.Mmio.revoke victim.mapping;
  Nic.Dp.deactivate (Cnic.dp nic) ~ctx:victim.ctx;
  (* The slot's DMA context will belong to the next occupant: the victim's
     IOMMU grants must not let the newcomer reach the victim's pages. *)
  iommu_grants_apply t victim ~f:Memory.Iommu.revoke;
  let slots = slots_of t nic in
  slots.(victim.ctx) <- None;
  victim.saved <- Some image;
  victim.resident <- false;
  t.ctx_swaps <- t.ctx_swaps + 1

(* Least-recently-used resident, non-faulted context; ties break to the
   lowest slot (deterministic). *)
let pick_victim t nic =
  let slots = slots_of t nic in
  let best = ref None in
  Array.iter
    (fun slot ->
      match slot with
      | Some h
        when not (Nic.Dp.is_faulted (Cnic.dp nic) ~ctx:h.ctx) -> (
          match !best with
          | Some b when b.last_use <= h.last_use -> ()
          | _ -> best := Some h)
      | Some _ | None -> ())
    slots;
  !best

(* Bring a paged-out context back: free (or steal) a slot, rebind the
   mapping and live interface, restore the saved image, and charge the
   swap work to the faulting guest as hypervisor time. *)
let page_in t h =
  let nic = h.nic in
  let evicted =
    match Cnic.free_context nic with
    | Some _ -> false
    | None -> (
        match pick_victim t nic with
        | Some v ->
            page_out t v;
            true
        | None -> invalid_arg "Cdna.Hyp: no evictable context")
  in
  let ctx =
    match Cnic.free_context nic with
    | Some c -> c
    | None -> invalid_arg "Cdna.Hyp: no free context after eviction"
  in
  let image =
    match h.saved with
    | Some s -> s
    | None -> invalid_arg "Cdna.Hyp: page_in without saved image"
  in
  h.saved <- None;
  h.ctx <- ctx;
  let fw = Cnic.firmware nic in
  h.mapping <- Bus.Mmio.map (Nic.Firmware.region fw ~ctx);
  h.hw_live <- Nic.Firmware.driver_if fw ~ctx ~mapping:h.mapping;
  (* Grants must be installed before the restore kicks the DMA engines. *)
  iommu_grants_apply t h ~f:Memory.Iommu.grant;
  Cnic.restore_context_image nic ~ctx image;
  let slots = slots_of t nic in
  slots.(ctx) <- Some h;
  h.resident <- true;
  t.ctx_swaps <- t.ctx_swaps + 1;
  trace t (fun () ->
      Printf.sprintf "page-in dom%d -> ctx%d%s"
        (Xen.Domain.id h.guest)
        ctx
        (if evicted then " (evicted lru)" else ""));
  (* The restore itself is instantaneous hardware state surgery; its CPU
     cost (partition copy, register writes) is charged post-hoc on the
     guest's vcpu, like the unpin delta in [enqueue]. *)
  let n_swaps = if evicted then 2 else 1 in
  Xen.Hypervisor.hypercall t.xen ~from:h.guest
    ~cost:(Sim.Time.mul_int t.costs.Cdna_costs.context_swap n_swaps)
    (fun () -> ())

(* Touch the LRU clock and fault the context in if it is paged out. Every
   hardware access from the guest driver goes through here. *)
let ensure_resident t h =
  t.use_clock <- t.use_clock + 1;
  h.last_use <- t.use_clock;
  if (not h.resident) && not h.revoked then page_in t h

(* The stable driver-facing interface: delegates every hardware operation
   to the context's current live binding, faulting it in first. *)
let wrap t h : Nic.Driver_if.t =
  {
    Nic.Driver_if.desc_layout = h.hw_live.Nic.Driver_if.desc_layout;
    setup_tx_ring =
      (fun ring ->
        ensure_resident t h;
        h.hw_live.Nic.Driver_if.setup_tx_ring ring);
    setup_rx_ring =
      (fun ring ->
        ensure_resident t h;
        h.hw_live.Nic.Driver_if.setup_rx_ring ring);
    setup_status =
      (fun addr ->
        ensure_resident t h;
        h.hw_live.Nic.Driver_if.setup_status addr);
    tx_doorbell =
      (fun prod ->
        ensure_resident t h;
        h.hw_live.Nic.Driver_if.tx_doorbell prod);
    rx_doorbell =
      (fun prod ->
        ensure_resident t h;
        h.hw_live.Nic.Driver_if.rx_doorbell prod);
    stage_tx_meta =
      (fun frame ->
        ensure_resident t h;
        h.hw_live.Nic.Driver_if.stage_tx_meta frame);
    take_tx_completions =
      (fun () ->
        ensure_resident t h;
        h.hw_live.Nic.Driver_if.take_tx_completions ());
    take_rx_completions =
      (fun ~max ->
        ensure_resident t h;
        h.hw_live.Nic.Driver_if.take_rx_completions ~max);
    rx_completions_pending =
      (fun () ->
        ensure_resident t h;
        h.hw_live.Nic.Driver_if.rx_completions_pending ());
  }

let assign_context t ~nic ~guest ~mac ~isr_cost =
  let slots = slots_of t nic in
  let slot =
    match Cnic.free_context nic with
    | Some ctx -> Some (ctx, false)
    | None ->
        if not t.paging then None
        else (
          match pick_victim t nic with
          | None -> None
          | Some v -> (
              page_out t v;
              match Cnic.free_context nic with
              | Some ctx -> Some (ctx, true)
              | None -> None))
  in
  match slot with
  | None -> Error `No_free_context
  | Some (ctx, evicted) ->
      let fw = Cnic.firmware nic and dp = Cnic.dp nic in
      let mapping = Bus.Mmio.map (Nic.Firmware.region fw ~ctx) in
      let handler = ref (fun () -> ()) in
      let chan =
        Xen.Event_channel.create t.xen ~target:guest ~isr_cost
          ~handler:(fun () -> !handler ())
      in
      Nic.Dp.activate dp ~ctx ~mac;
      Nic.Dp.set_expected_seqno dp ~ctx ~tx:0 ~rx:0;
      let live = Nic.Firmware.driver_if fw ~ctx ~mapping in
      t.use_clock <- t.use_clock + 1;
      let h =
        {
          nic;
          ctx;
          guest;
          mac;
          isr_cost;
          mapping;
          hw = live;
          hw_live = live;
          chan;
          handler;
          fault_hook = ref None;
          revoked = false;
          tx = fresh_ring_state ();
          rx = fresh_ring_state ();
          status_addr = None;
          resident = true;
          saved = None;
          last_use = t.use_clock;
          granted_extra = [];
          mailbox_save = Nic.Mailbox.save_area ();
        }
      in
      h.hw <- wrap t h;
      slots.(ctx) <- Some h;
      if evicted then
        Xen.Hypervisor.hypercall t.xen ~from:guest
          ~cost:t.costs.Cdna_costs.context_swap (fun () -> ());
      Ok h

let set_event_handler h f = h.handler := f
let set_fault_hook h f = h.fault_hook := Some f

(* Drop the hold an enqueued descriptor took on one of its pages: the pin
   or the IOMMU grant. *)
let release_page t h pfn =
  match t.protection with
  | Cdna_costs.Full -> Memory.Phys_mem.put_ref (mem t) pfn
  | Cdna_costs.Iommu -> (
      (* A paged-out context's grants were already revoked when it left
         its slot; the slot id it remembers may belong to another guest by
         now. *)
      if h.resident then
        match t.iommu with
        | Some iommu -> Memory.Iommu.revoke iommu ~context:(iommu_ctx h) pfn
        | None -> ())
  | Cdna_costs.Disabled -> ()

let release_range t h ~first ~pages =
  for pfn = first to first + pages - 1 do
    release_page t h pfn
  done

let unpin_all t h rs =
  let l = rs.pins in
  let i = ref l.head in
  while !i < l.tail do
    release_range t h ~first:l.buf.(!i + 1) ~pages:l.buf.(!i + 2);
    i := !i + 3
  done;
  l.head <- 0;
  l.tail <- 0;
  l.pages <- 0

let revoke t h =
  if not h.revoked then begin
    h.revoked <- true;
    if h.resident then begin
      Bus.Mmio.revoke h.mapping;
      Nic.Dp.deactivate (Cnic.dp h.nic) ~ctx:h.ctx
    end
    else h.saved <- None;
    unpin_all t h h.tx;
    unpin_all t h h.rx;
    if h.resident then begin
      let slots = slots_of t h.nic in
      slots.(h.ctx) <- None
    end
  end

let migrate t h ~to_nic =
  (* The handle remembers the MAC from assignment time: after revocation
     the NIC no longer knows it, and a placeholder MAC would collide in
     the target's MAC table when several revoked contexts migrate. *)
  let mac = h.mac in
  let handler = !(h.handler) in
  revoke t h;
  match
    assign_context t ~nic:to_nic ~guest:h.guest ~mac ~isr_cost:h.isr_cost
  with
  | Error `No_free_context -> Error `No_free_context
  | Ok fresh ->
      trace t (fun () ->
          Printf.sprintf "migrated dom%d ctx%d -> ctx%d"
            (Xen.Domain.id h.guest) h.ctx fresh.ctx);
      set_event_handler fresh handler;
      Ok fresh

(* Recovery from a context fault (or any revocation): tear the faulted
   context down completely — unpin, revoke, free the slot — then assign a
   fresh context on the same NIC with the same MAC and interrupt binding.
   Contexts are a finite hardware resource, so assignment may transiently
   fail; retry with exponential backoff, bounded. *)
let reassign t h k =
  let engine = Xen.Hypervisor.engine t.xen in
  let handler = !(h.handler) in
  revoke t h;
  let rec attempt retries_left backoff =
    match
      assign_context t ~nic:h.nic ~guest:h.guest ~mac:h.mac
        ~isr_cost:h.isr_cost
    with
    | Ok fresh ->
        trace t (fun () ->
            Printf.sprintf "reassigned dom%d ctx%d -> ctx%d"
              (Xen.Domain.id h.guest) h.ctx fresh.ctx);
        set_event_handler fresh handler;
        k (Ok fresh)
    | Error `No_free_context ->
        if retries_left <= 0 then k (Error `No_free_context)
        else
          Sim.Engine.schedule engine ~delay:backoff (fun () ->
              attempt (retries_left - 1) (Sim.Time.mul_int backoff 2))
  in
  attempt 3 (Sim.Time.us 100)

let is_revoked h = h.revoked
let guest_of h = h.guest
let ctx_id h = h.ctx
let mac_of h = h.mac
let driver_if h = h.hw
let virq_deliveries h = Xen.Event_channel.deliveries h.chan

(* ---------- Hypercalls ---------- *)

let ring_state h = function Tx -> h.tx | Rx -> h.rx

let validate_pages t h pfns =
  let mem = mem t in
  let rec check = function
    | [] -> Ok ()
    | pfn :: rest ->
        if Memory.Phys_mem.owned_by mem pfn (Xen.Domain.id h.guest) then
          check rest
        else Error (`Not_owner pfn)
  in
  check pfns

(* The tail both registration hypercalls share: check the caller owns
   [pfns], let [program] point the NIC at them, and in IOMMU mode grant
   them to the context's DMA context. *)
let validate_and_grant t h pfns ~program k =
  match
    if t.protection = Cdna_costs.Disabled then Ok ()
    else validate_pages t h pfns
  with
  | Error e -> k (Error e)
  | Ok () ->
      program ();
      (match (t.protection, t.iommu) with
      | Cdna_costs.Iommu, Some iommu ->
          List.iter
            (fun pfn -> Memory.Iommu.grant iommu ~context:(iommu_ctx h) pfn)
            pfns;
          h.granted_extra <- pfns @ h.granted_extra
      | _ -> ());
      k (Ok ())

let register_ring t h dir ~base ~slots k =
  let cost = t.costs.Cdna_costs.map_context in
  Xen.Hypervisor.hypercall t.xen ~from:h.guest ~cost (fun () ->
      if h.revoked then k (Error `Revoked)
      else begin
        ensure_resident t h;
        let ring =
          Nic.Ring.create ~base ~slots
            ~desc_bytes:(desc_layout h).Memory.Desc_layout.size ()
        in
        if slots > Seqno.max_ring_slots then
          invalid_arg "Cdna.Hyp.register_ring: ring too large for seqno space";
        let pfns =
          Memory.Addr.pages_spanned ~addr:base
            ~len:(Nic.Ring.size_bytes ring)
        in
        validate_and_grant t h pfns k ~program:(fun () ->
            let rs = ring_state h dir in
            rs.ring <- Some ring;
            rs.prod <- 0;
            rs.seq <- 0;
            (* The hypervisor, not the guest, programs the NIC. *)
            match dir with
            | Tx -> Nic.Dp.set_tx_ring (Cnic.dp h.nic) ~ctx:h.ctx ring
            | Rx -> Nic.Dp.set_rx_ring (Cnic.dp h.nic) ~ctx:h.ctx ring)
      end)

let register_status t h ~addr k =
  let cost = t.costs.Cdna_costs.map_context in
  Xen.Hypervisor.hypercall t.xen ~from:h.guest ~cost (fun () ->
      if h.revoked then k (Error `Revoked)
      else begin
        ensure_resident t h;
        let pfns = [ Memory.Addr.pfn_of addr ] in
        validate_and_grant t h pfns k ~program:(fun () ->
            h.status_addr <- Some addr;
            Nic.Dp.set_status_addr (Cnic.dp h.nic) ~ctx:h.ctx addr)
      end)

(* Consumer index for a direction, as last written back by the NIC. *)
let consumer t h dir =
  match h.status_addr with
  | None -> 0
  | Some addr -> (
      match dir with
      | Tx -> Memory.Phys_mem.read_u32 (mem t) ~addr
      | Rx -> Memory.Phys_mem.read_u32 (mem t) ~addr:(addr + 4))

(* Lazily drop pins for descriptors the NIC has consumed (paper 3.3). *)
let process_completions t h dir =
  let l = (ring_state h dir).pins in
  let cons = consumer t h dir in
  let unpinned = ref 0 in
  while l.head < l.tail && l.buf.(l.head) < cons do
    let pages = l.buf.(l.head + 2) in
    release_range t h ~first:l.buf.(l.head + 1) ~pages;
    ledger_pop l;
    unpinned := !unpinned + pages
  done;
  !unpinned

let enqueue_cost t ~n_desc ~n_unpin =
  let c = t.costs in
  match t.protection with
  | Cdna_costs.Full ->
      Sim.Time.add c.Cdna_costs.hypercall_fixed
        (Sim.Time.add
           (Sim.Time.mul_int c.Cdna_costs.validate_per_desc n_desc)
           (Sim.Time.mul_int c.Cdna_costs.unpin_per_desc n_unpin))
  | Cdna_costs.Iommu ->
      Sim.Time.add c.Cdna_costs.hypercall_fixed
        (Sim.Time.mul_int c.Cdna_costs.iommu_per_desc (n_desc + n_unpin))
  | Cdna_costs.Disabled ->
      (* Direct ring writes by the guest; no hypervisor involvement. The
         small per-descriptor cost models the stores themselves. *)
      Sim.Time.mul_int (Sim.Time.ns 60) n_desc

(* Hypervisor-side cost of unpinning [n] descriptors' pages, over and
   above what a hypercall was already charged for. *)
let unpin_delta_cost t n =
  let c = t.costs in
  match t.protection with
  | Cdna_costs.Full -> Sim.Time.mul_int c.Cdna_costs.unpin_per_desc n
  | Cdna_costs.Iommu -> Sim.Time.mul_int c.Cdna_costs.iommu_per_desc n
  | Cdna_costs.Disabled -> Sim.Time.zero

(* The first page of [descs], in descriptor order, that [dom] does not
   own; -1 if it owns them all ([pfn_of] is never negative). Each
   descriptor's page range is computed once: its first pfn and page
   count go to [ranges.(i)] and [ranges.(i + 1)], where [enqueue]'s
   write loop reads them back. *)
let rec first_foreign mem ~dom ranges i = function
  | [] -> -1
  | (d : Memory.Dma_desc.t) :: rest ->
      let pages = Memory.Addr.page_count ~addr:d.addr ~len:d.len in
      let first = Memory.Addr.pfn_of d.addr in
      ranges.(i) <- first;
      ranges.(i + 1) <- pages;
      let pfn = ref first in
      while !pfn < first + pages && Memory.Phys_mem.owned_by mem !pfn dom do
        incr pfn
      done;
      if !pfn < first + pages then !pfn
      else first_foreign mem ~dom ranges (i + 2) rest

(* Validate the whole batch first: all-or-nothing. *)
let validate_batch t h descs =
  let n = List.length descs in
  if Array.length t.ranges < 2 * n then t.ranges <- Array.make (2 * n) 0;
  match
    first_foreign (mem t) ~dom:(Xen.Domain.id h.guest) t.ranges 0 descs
  with
  | -1 -> Ok ()
  | pfn -> Error (`Not_owner pfn)

let enqueue t h dir descs k =
  let n_desc = List.length descs in
  (* Estimate the unpin work for the up-front hypercall charge from the
     consumer index visible at call time. NIC status writebacks can land
     during the hypercall latency, so the body recomputes the real count
     and charges the difference. *)
  let n_unpin_est =
    if t.protection = Cdna_costs.Disabled then 0
    else ledger_consumed_pages (ring_state h dir).pins ~cons:(consumer t h dir)
  in
  let cost = enqueue_cost t ~n_desc ~n_unpin:n_unpin_est in
  let body () =
    t.enqueue_calls <- t.enqueue_calls + 1;
    if h.revoked then k (Error `Revoked)
    else begin
      let rs = ring_state h dir in
      match rs.ring with
      | None -> k (Error `Ring_unregistered)
      | Some ring ->
          let n_unpin = process_completions t h dir in
          if n_unpin > n_unpin_est then
            (* Writebacks completed more descriptors than the estimate
               saw; account the missed unpin work against the caller so
               the charged cost matches the work actually done. *)
            Xen.Hypervisor.hypercall t.xen ~from:h.guest
              ~cost:(unpin_delta_cost t (n_unpin - n_unpin_est))
              (fun () -> ());
          let cons = consumer t h dir in
          if rs.prod + n_desc - cons > Nic.Ring.slots ring then
            k (Error `Ring_full)
          else begin
            (* Every length is checked before anything is written, in
               every mode: a negative one fails this call alone. *)
            let validation =
              if List.exists (fun (d : Memory.Dma_desc.t) -> d.len < 0) descs
              then Error `Bad_length
              else if t.protection = Cdna_costs.Disabled then Ok ()
              else validate_batch t h descs
            in
            match validation with
            | Error e ->
                trace t (fun () ->
                    Printf.sprintf "enqueue rejected ctx=%d dom=%d" h.ctx
                      (Xen.Domain.id h.guest));
                k (Error e)
            | Ok () ->
                List.iteri
                  (fun i (d : Memory.Dma_desc.t) ->
                    let idx = rs.prod in
                    (match t.protection with
                    | Cdna_costs.Full | Cdna_costs.Iommu ->
                        let first = t.ranges.(2 * i)
                        and pages = t.ranges.((2 * i) + 1) in
                        (match (t.protection, t.iommu) with
                        | Cdna_costs.Full, _ ->
                            for pfn = first to first + pages - 1 do
                              Memory.Phys_mem.get_ref (mem t) pfn
                            done
                        | Cdna_costs.Iommu, Some iommu when h.resident ->
                            (* Grants for a paged-out context are deferred
                               to page-in, which re-grants every pin. *)
                            for pfn = first to first + pages - 1 do
                              Memory.Iommu.grant iommu
                                ~context:(iommu_ctx h) pfn
                            done
                        | _ -> ());
                        ledger_push rs.pins ~idx ~first ~pages
                    | Cdna_costs.Disabled -> ());
                    let stamped = { d with Memory.Dma_desc.seqno = rs.seq } in
                    rs.seq <- Seqno.next rs.seq;
                    Memory.Desc_layout.write (desc_layout h) (mem t)
                      ~at:(Nic.Ring.slot_addr ring idx)
                      stamped;
                    rs.prod <- idx + 1)
                  descs;
                k (Ok rs.prod)
          end
    end
  in
  match t.protection with
  | Cdna_costs.Disabled ->
      (* No hypercall: the work happens in the guest kernel. *)
      Xen.Hypervisor.kernel_work t.xen h.guest ~cost body
  | Cdna_costs.Full | Cdna_costs.Iommu ->
      Xen.Hypervisor.hypercall t.xen ~from:h.guest ~cost body

let pinned_pages h = h.tx.pins.pages + h.rx.pins.pages
let faults t = t.faults

let register_metrics t m =
  Sim.Metrics.gauge m "cdna.enqueue_calls" (fun () -> t.enqueue_calls);
  Sim.Metrics.gauge m "cdna.faults" (fun () -> List.length t.faults);
  (* Only present under oversubscription, so legacy (non-paging) metric
     snapshots are unchanged. *)
  if t.paging then
    Sim.Metrics.gauge m "cdna.ctx_swaps" (fun () -> t.ctx_swaps);
  (* NICs are numbered in registration order; the slot array is stable, so
     the gauges keep reading the live handle (or 0 after revocation). *)
  List.iteri
    (fun i (_, slots) ->
      let nic_label = ("nic", Printf.sprintf "cnic%d" i) in
      Array.iteri
        (fun ctx _ ->
          let labels = [ nic_label; ("ctx", string_of_int ctx) ] in
          Sim.Metrics.gauge m ~labels "cdna.ctx.pinned_pages" (fun () ->
              match slots.(ctx) with Some h -> pinned_pages h | None -> 0);
          Sim.Metrics.gauge m ~labels "cdna.ctx.virqs" (fun () ->
              match slots.(ctx) with
              | Some h -> virq_deliveries h
              | None -> 0))
        slots)
    (List.rev t.nics)
