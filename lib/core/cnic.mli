(** The CDNA network interface (RiceNIC with CDNA firmware, paper §4).

    32 hardware contexts, each with a page-sized mailbox partition in NIC
    SRAM (mappable into exactly one guest), per-context descriptor rings
    fetched from host memory, MAC-based receive demultiplexing, fair
    round-robin transmit across contexts, sequence-number validation of
    every descriptor, and interrupt delivery by DMA-ing an interrupt bit
    vector into the hypervisor's circular buffer before raising the
    physical interrupt.

    The [activate]/[revoke]/[region] operations are privileged: only the
    hypervisor ({!Hyp}) calls them. Guests interact exclusively through
    the {!Nic.Driver_if.t} bound to their own mailbox mapping. *)

type t

(** Hardware contexts per NIC. *)
val num_contexts : int

(** [create engine ~mem ~dma ~irq ~dma_context_base ~intr_base ()] — the
    interrupt bit-vector buffer lives at hypervisor address [intr_base]
    ([intr_slots] entries, default 256). [dma_context_base] spaces this
    NIC's IOMMU context ids. *)
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

val attach_link : t -> Ethernet.Link.t -> side:Ethernet.Link.side -> unit
val dp : t -> Nic.Dp.t
val irq : t -> Bus.Irq.t
val intr_vector : t -> Intr_vector.t

(** The shared DMA engine (for IOMMU installation). *)
val dma : t -> Bus.Dma_engine.t

(** The device's preferred descriptor format, published to the hypervisor
    (paper section 3.4). *)
val desc_layout : t -> Memory.Desc_layout.t

(** IOMMU context id of hardware context [ctx] ([base + ctx]); the
    interrupt bit-vector buffer writes as context [base + num_contexts]. *)
val dma_context_of : t -> ctx:int -> int

val intr_dma_context : t -> int

(** {1 Privileged operations (hypervisor only)} *)

val activate_context : t -> ctx:int -> mac:Ethernet.Mac_addr.t -> unit

(** Shuts down all pending operations of the context (paper section 3.1). *)
val revoke_context : t -> ctx:int -> unit

val set_expected_seqno : t -> ctx:int -> tx:int -> rx:int -> unit

(** Lowest fully reset slot — neither active nor {e faulted}: a context
    halted by a protection fault keeps its poisoned seqno/ring state
    until it is deactivated and must not be handed out. *)
val free_context : t -> int option

(** Opaque full image of one hardware context (datapath architectural
    state + SRAM mailbox partition + firmware scratch), the unit of
    hypervisor-mediated context paging. *)
type saved_context

(** [save_context t ~ctx] snapshots an active context's image and scrubs
    the SRAM partition and firmware scratch; the caller must then revoke
    the context (which resets the datapath slot). *)
val save_context : t -> ctx:int -> saved_context

(** [restore_context_image t ~ctx s] installs a saved image on a reset
    slot (any slot — not necessarily the one it was saved from). *)
val restore_context_image : t -> ctx:int -> saved_context -> unit

val region : t -> ctx:int -> Bus.Mmio.region

(** Driver interface bound to a guest's mapping of its partition. *)
val driver_if : t -> ctx:int -> mapping:Bus.Mmio.mapping -> Nic.Driver_if.t

(** Privileged ring programming, used when the hypervisor (not the guest)
    owns ring setup under full protection. *)
val set_tx_ring : t -> ctx:int -> Nic.Ring.t -> unit

val set_rx_ring : t -> ctx:int -> Nic.Ring.t -> unit
val set_status_addr : t -> ctx:int -> Memory.Addr.t -> unit

val set_fault_handler :
  t -> (ctx:int -> Nic.Dp.dir -> Nic.Dp.fault -> unit) -> unit

(** {1 Flow control and statistics} *)

val set_uncongested_hook : t -> (unit -> unit) -> unit

(** Expose datapath, coalescer, mailbox, firmware and interrupt
    ([cnic.interrupts_raised]: physical interrupts raised after the
    bit-vector DMA) gauges under [labels] (e.g. [[("nic", "cnic0")]]). *)
val register_metrics :
  t -> Sim.Metrics.t -> labels:(string * string) list -> unit
