(** RiceNIC with basic (non-CDNA) firmware.

    The FPGA NIC of paper section 4 running its standard single-context
    firmware: the driver interacts through context 0's mailbox partition
    (real PIO writes decoded by the firmware event loop), descriptors are
    fetched by DMA, and one coalesced physical interrupt line notifies the
    host. "Unvirtualized device drivers would use a single context's
    mailboxes to interact with the base firmware."

    The CDNA variant of the same hardware lives in the [cdna] library. *)

type t

val create :
  Sim.Engine.t ->
  mem:Memory.Phys_mem.t ->
  dma:Bus.Dma_engine.t ->
  ?config:Nic_config.t ->
  irq:Bus.Irq.t ->
  dma_context:int ->
  unit ->
  t

val attach_link : t -> Ethernet.Link.t -> side:Ethernet.Link.side -> unit
val enable : t -> mac:Ethernet.Mac_addr.t -> unit

(** Driver interface through context 0's mailbox partition. *)
val driver_if : t -> Driver_if.t

val dp : t -> Dp.t
val set_uncongested_hook : t -> (unit -> unit) -> unit

(** Expose datapath, coalescer, mailbox and firmware gauges under
    [labels] (e.g. [[("nic", "nic0")]]). *)
val register_metrics :
  t -> Sim.Metrics.t -> labels:(string * string) list -> unit
