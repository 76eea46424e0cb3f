(** The CDNA network interface (RiceNIC with CDNA firmware, paper §4).

    The {!Nic.Shell} with 32 hardware contexts, each with a page-sized
    mailbox partition in NIC SRAM (mappable into exactly one guest),
    per-context descriptor rings fetched from host memory, MAC-based
    receive demultiplexing, fair round-robin transmit across contexts and
    sequence-number validation of every descriptor. What this module adds
    is CDNA's: interrupt delivery by DMA-ing an interrupt bit vector into
    the hypervisor's circular buffer before raising the physical
    interrupt, guest-specific fault reports, and the context image that
    hypervisor-mediated paging moves between slots.

    Context control ({!Nic.Dp.activate}, {!Nic.Dp.deactivate}, ring
    programming, {!Nic.Firmware.region}) is privileged: only the
    hypervisor ({!Hyp}) does it. Guests interact exclusively through the
    {!Nic.Firmware.driver_if} bound to their own mailbox mapping. *)

type t

(** Hardware contexts per NIC. *)
val num_contexts : int

(** [create engine ~mem ~dma ~irq ~dma_context_base ~intr_base ()] — the
    interrupt bit-vector buffer (256 slots) lives at hypervisor address
    [intr_base]. Hardware context [i] transfers as IOMMU context
    [dma_context_base + i] and the bit-vector writes as
    [dma_context_base + num_contexts].
    @raise Invalid_argument if [config] has no [firmware_delay]. *)
val create :
  Sim.Engine.t ->
  mem:Memory.Phys_mem.t ->
  dma:Bus.Dma_engine.t ->
  ?config:Nic.Nic_config.t ->
  irq:Bus.Irq.t ->
  dma_context_base:int ->
  intr_base:Memory.Addr.t ->
  unit ->
  t

(** The CDNA variant of the RiceNIC configuration (sequence checking on). *)
val default_config : Nic.Nic_config.t

val dp : t -> Nic.Dp.t
val firmware : t -> Nic.Firmware.t
val irq : t -> Bus.Irq.t
val intr_vector : t -> Intr_vector.t

(** Lowest fully reset slot — neither active nor {e faulted}: a context
    halted by a protection fault keeps its poisoned seqno/ring state
    until it is deactivated and must not be handed out. *)
val free_context : t -> int option

(** {1 Context paging}

    A hardware context's image is its datapath record ({!Nic.Dp.arch})
    plus its SRAM mailbox partition, held in the guest's save area. *)

(** [page_out t ~ctx ~mailbox] detaches an active context's record (see
    {!Nic.Dp.detach}), which resets the slot, and moves its SRAM
    partition into [mailbox], scrubbing the partition. *)
val page_out :
  t -> ctx:int -> mailbox:Nic.Mailbox.saved_partition -> Nic.Dp.arch

(** [page_in t ~ctx ~mailbox a] restores the partition from [mailbox] and
    attaches [a] on a reset slot: any slot, not necessarily the one it
    was paged out of. *)
val page_in :
  t -> ctx:int -> mailbox:Nic.Mailbox.saved_partition -> Nic.Dp.arch -> unit

val set_fault_handler :
  t -> (ctx:int -> Nic.Dp.dir -> Nic.Dp.fault -> unit) -> unit

(** {!Nic.Shell.register_metrics} plus [cnic.interrupts_raised]: physical
    interrupts raised after the bit-vector DMA. *)
val register_metrics :
  t -> Sim.Metrics.t -> labels:(string * string) list -> unit
