(** Conventional single-context NIC (Intel Pro/1000 MT model).

    The software-virtualization baseline NIC of the paper's evaluation: one
    hardware context, register-style doorbells, TSO capable, interrupts
    coalesced onto a single physical line. Under Xen it is owned by the
    driver domain and runs in promiscuous mode behind the software
    bridge. *)

type t

(** [create engine ~mem ~dma ~irq ~dma_context ()] — [dma_context] is this
    device's IOMMU context id. *)
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

(** Bring the device up with its MAC (also enables promiscuous receive,
    as required behind a bridge). *)
val enable : t -> mac:Ethernet.Mac_addr.t -> unit

(** Driver-facing operations (register writes are immediate). *)
val driver_if : t -> Driver_if.t

val dp : t -> Dp.t

(** Flow-control hook: fires when the receive buffer drains below the low
    watermark (restarts a peer that idled while the NIC was backed up). *)
val set_uncongested_hook : t -> (unit -> unit) -> unit

(** Expose datapath and coalescer gauges under [labels]
    (e.g. [[("nic", "nic0")]]). *)
val register_metrics :
  t -> Sim.Metrics.t -> labels:(string * string) list -> unit
