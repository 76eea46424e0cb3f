(** A conventional single-context NIC.

    The baseline NICs of the paper's evaluation, owned by one driver (the
    native OS, or Xen's driver domain behind the software bridge): one
    hardware context and one coalesced physical interrupt line. The
    configuration picks the model:

    - {!Nic_config.intel}, the Intel Pro/1000 MT: no firmware; the driver
      writes registers and each write acts on the datapath at once.
    - {!Nic_config.ricenic}, RiceNIC with its basic firmware: the driver
      writes context 0's mailbox partition and the firmware event loop
      decodes each write. "Unvirtualized device drivers would use a single
      context's mailboxes to interact with the base firmware."

    The CDNA variant of RiceNIC lives in the [cdna] library. *)

type t

(** [create engine ~mem ~dma ~config ~irq ~dma_context] — [dma_context]
    is this device's IOMMU context id. *)
val create :
  Sim.Engine.t ->
  mem:Memory.Phys_mem.t ->
  dma:Bus.Dma_engine.t ->
  config:Nic_config.t ->
  irq:Bus.Irq.t ->
  dma_context:int ->
  t

(** Bring the device up with its MAC (also enables promiscuous receive,
    as required behind a bridge). *)
val enable : t -> mac:Ethernet.Mac_addr.t -> unit

val dp : t -> Dp.t

(** Driver-facing operations on context 0: register writes without
    firmware, mailbox writes with it. *)
val driver_if : t -> Driver_if.t

(** {!Shell.register_metrics}. *)
val register_metrics :
  t -> Sim.Metrics.t -> labels:(string * string) list -> unit
