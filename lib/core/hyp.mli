(** Hypervisor support for CDNA (paper section 3).

    This module implements the software half of the CDNA split:

    - {b Context management} (3.1): assigning a NIC hardware context to a
      guest maps that context's mailbox partition into (only) that guest
      and activates the context with a unique MAC; revocation unmaps and
      shuts down pending operations.
    - {b Interrupt delivery} (3.2): the NIC's physical interrupt is
      captured by the hypervisor, which drains the interrupt bit-vector
      buffer and schedules a virtual interrupt to every guest whose
      context bit is set.
    - {b DMA memory protection} (3.3): guests cannot write descriptor
      rings; they call the {!enqueue} hypercall. The hypervisor validates
      that every page referenced by a descriptor is owned by the caller,
      pins the pages (incrementing reference counts so they cannot be
      reallocated while DMA is outstanding), stamps a strictly increasing
      sequence number, and writes the descriptor into the ring itself.
      Reference counts are dropped lazily when later enqueues observe
      completions — exactly the paper's scheme.

    Protection modes ({!Cdna_costs.protection}): [Full] as above;
    [Disabled] skips validation entirely (guests write rings directly —
    Table 4's upper bound); [Iommu] installs per-context IOMMU entries
    instead of software validation (section 5.3). *)

type t

(** [create xen ~costs ?protection ~paging ()] — [paging] allows more
    guests than hardware contexts on every registered NIC (see below). *)
val create :
  Xen.Hypervisor.t ->
  costs:Cdna_costs.t ->
  ?protection:Cdna_costs.protection ->
  paging:bool ->
  unit ->
  t

val costs : t -> Cdna_costs.t
val xen : t -> Xen.Hypervisor.t

(** {1 Context oversubscription (paging)}

    With paging on, {!assign_context} no longer fails when every
    hardware context is taken: the least-recently-used resident context is
    {e paged out} — its datapath record (ring registers, cursors,
    expected seqnos, staged work) taken off the slot, which is reset, its
    mailbox partition moved to a per-guest area and its partition mapping
    revoked. The next hardware access by the paged-out guest faults the
    context back in on a free (or freshly evicted) slot, transparently to
    the guest driver: transmit
    state is restored losslessly, receive losses are recovered by peer
    retransmission. Each save or restore costs
    {!Cdna_costs.t.context_swap} of hypervisor time, charged to the guest
    whose access triggered the swap. *)

val paging_enabled : t -> bool

(** [add_nic t nic] registers a CDNA NIC: routes its physical interrupt
    into the bit-vector decode path, and (in [Iommu] mode) installs the
    IOMMU on the shared DMA engine for the NIC's contexts. *)
val add_nic : t -> Cnic.t -> unit

(** {1 Context assignment} *)

type ctx_handle

type enqueue_error =
  [ `Not_owner of Memory.Addr.pfn  (** Validation failed on this page. *)
  | `Bad_length  (** A descriptor's length is negative. *)
  | `Bad_ring_size
    (** A ring size that is not a power of two in
        [\[2, Seqno.max_ring_slots\]]. *)
  | `Bad_ring_base  (** A negative ring base address. *)
  | `Ring_full
  | `Ring_unregistered
  | `Revoked ]

(** [assign_context t ~nic ~guest ~mac ~isr_cost] picks a free hardware
    context, maps its partition into [guest], activates it (a free
    context's sequence numbers are 0) and binds an event channel
    (virtual ISR cost [isr_cost]). *)
val assign_context :
  t ->
  nic:Cnic.t ->
  guest:Xen.Domain.t ->
  mac:Ethernet.Mac_addr.t ->
  isr_cost:Sim.Time.t ->
  (ctx_handle, [ `No_free_context ]) result

(** Install the guest driver's virtual-interrupt handler. *)
val set_event_handler : ctx_handle -> (unit -> unit) -> unit

(** [set_fault_hook h f] installs a hook run (in a fresh simulation event)
    whenever the NIC reports a protection fault on this context. Used by
    the guest driver's automatic recovery (see {!Driver.enable_auto_recovery}). *)
val set_fault_hook : ctx_handle -> (unit -> unit) -> unit

(** [revoke t h] revokes the context at any time: unmaps the partition
    (subsequent PIO faults), deactivates the hardware context, and drops
    all page pins. *)
val revoke : t -> ctx_handle -> unit

(** [migrate t h ~to_nic] moves a guest's connectivity to another CDNA
    NIC: revokes the old context and assigns a fresh one on [to_nic] with
    the same MAC address and virtual-interrupt binding. Packets in flight
    on the old context are shut down (the transport recovers, as for any
    link flap); the guest driver must re-register rings (see
    {!Driver.rebind}). Built from the paper's observation that "the
    hypervisor can also revoke a context at any time". *)
val migrate :
  t -> ctx_handle -> to_nic:Cnic.t -> (ctx_handle, [ `No_free_context ]) result

(** [reassign t h k] recovers from a context fault: revokes [h] (unpinning
    everything) and assigns a fresh context on the same NIC with the MAC
    recorded at assignment time and the same interrupt binding. If no
    context is free, retries up to 3 times with exponential backoff
    starting at 100 us before
    reporting failure to [k]. *)
val reassign :
  t ->
  ctx_handle ->
  ((ctx_handle, [ `No_free_context ]) result -> unit) ->
  unit

val is_revoked : ctx_handle -> bool
val guest_of : ctx_handle -> Xen.Domain.t
val ctx_id : ctx_handle -> int

(** The MAC recorded at {!assign_context} time (survives revocation). *)
val mac_of : ctx_handle -> Ethernet.Mac_addr.t

(** The guest's hardware interface (PIO through its own mapping). *)
val driver_if : ctx_handle -> Nic.Driver_if.t

(** {1 Guest hypercalls}

    All are asynchronous: they post hypervisor work on the calling guest's
    vcpu and invoke the continuation with the result. They must be called
    from the guest's execution context. *)

type dir = Tx | Rx

(** [register_ring t h dir ~base ~slots k] validates the ring size, the
    base and the ring memory (owned by the guest), records and programs
    it, and establishes the hypervisor's exclusive write access to it. *)
val register_ring :
  t ->
  ctx_handle ->
  dir ->
  base:Memory.Addr.t ->
  slots:int ->
  ((unit, enqueue_error) result -> unit) ->
  unit

(** [register_status t h ~addr k] sets the consumer-index writeback
    address (validated like any guest page). *)
val register_status :
  t ->
  ctx_handle ->
  addr:Memory.Addr.t ->
  ((unit, enqueue_error) result -> unit) ->
  unit

(** [enqueue t h dir descs k] — the protected descriptor-enqueue
    hypercall. Descriptor sequence numbers are assigned by the hypervisor
    (the [seqno] field of the inputs is ignored). On success the
    continuation receives the new producer index to write to the doorbell
    mailbox. The whole batch is rejected on the first invalid page, and
    in every mode, [Disabled] included, on any negative length: then
    nothing of the batch is written.

    In [Disabled] mode this performs the (cheap, unvalidated) ring writes
    the guest would otherwise do itself. *)
val enqueue :
  t ->
  ctx_handle ->
  dir ->
  Memory.Dma_desc.t list ->
  ((int, enqueue_error) result -> unit) ->
  unit

(** {1 Diagnostics} *)

(** Pages currently pinned for this context (both rings). *)
val pinned_pages : ctx_handle -> int

(** Protection faults reported by NICs: (guest domain id, context id). *)
val faults : t -> (Host.Category.domain_id * int) list

(** Expose [cdna.enqueue_calls] (enqueue hypercalls executed),
    [cdna.faults] and per-(NIC, context) [cdna.ctx.pinned_pages] /
    [cdna.ctx.virqs] (virtual interrupts delivered to the context's guest)
    gauges. With paging on, also [cdna.ctx_swaps]: context
    save/restore operations (a swap that evicts a victim and restores
    another image counts as two). NICs are labelled
    [cnic0], [cnic1], ... in {!add_nic} order; call after all NICs are
    registered. *)
val register_metrics : t -> Sim.Metrics.t -> unit
