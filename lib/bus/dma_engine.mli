(** PCI DMA engine.

    Models the shared I/O fabric of the paper's testbed (dual PCI-X-class
    host bridges): DMA transfers from all devices serialize on the bus for
    their size/bandwidth occupancy plus a small arbitration slot; the
    request latency is pipelined, delaying completion but not the next
    transfer. Bytes really move between device code and
    {!Memory.Phys_mem}.

    When an {!Memory.Iommu.t} is installed, every transfer is checked
    against the initiating context's permissions, page by page — the
    hardware-protection alternative of the paper's section 5.3. Without an
    IOMMU the engine trusts physical addresses, exactly like the x86 DMA
    model the paper describes as the protection problem.

    Completions fire in submission order. An admitted {!access},
    {!read_into}, {!write_from} or {!write_u32_pair} transfer waits in a
    per-engine ring of preallocated slots that one closure drains, so the
    zero-copy datapath allocates nothing per transfer: every transfer
    occupies the bus for at least the 40 ns arbitration slot and the
    latency is constant, so completion times strictly increase with
    submission. Faulted and fault-injected transfers, and the copying
    {!write}, complete through a closure of their own. *)

type t

type fault =
  [ `Bad_range  (** Address range outside physical memory. *)
  | `Iommu_denied of Memory.Addr.pfn
  | `Injected  (** Fault injected via {!set_fault_injector}. *) ]

val create :
  Sim.Engine.t ->
  mem:Memory.Phys_mem.t ->
  unit ->
  t

(** Install (or remove) an IOMMU consulted on every subsequent transfer. *)
val set_iommu : t -> Memory.Iommu.t option -> unit

(** [set_fault_injector t (Some f)] consults [f] on every transfer that
    passed range and IOMMU checks; when [f] answers true the transaction
    still occupies the bus (modelling a parity/timeout error on an
    admitted transfer) but completes with [`Injected] instead of moving
    bytes. Typically [f] forwards to [Sim.Fault_inject.fire]. *)
val set_fault_injector :
  t -> (context:int -> addr:Memory.Addr.t -> len:int -> bool) option -> unit

(** [read_into t ~context ~addr ~len ~dst ~pos k] DMA-reads host memory
    (host -> device): at completion time the bytes are blitted into the
    caller-supplied [dst] at [pos] and [k (Ok ())] runs. [context]
    identifies the initiating NIC context for IOMMU checks (ignored
    without IOMMU). The caller must
    not reuse [dst[pos, pos+len)] until [k] has fired (see DESIGN.md §8
    for the scratch-buffer ownership rules). A bad [dst] range completes
    with [`Bad_range] like a bad physical range. *)
val read_into :
  t ->
  context:int ->
  addr:Memory.Addr.t ->
  len:int ->
  dst:Bytes.t ->
  pos:int ->
  ((unit, fault) result -> unit) ->
  unit

(** [write t ~context ~addr ~data k] DMA-writes host memory (device -> host). *)
val write :
  t ->
  context:int ->
  addr:Memory.Addr.t ->
  data:Bytes.t ->
  ((unit, fault) result -> unit) ->
  unit

(** [write_from t ~context ~addr ~src ~pos ~len k] is the zero-copy
    variant of {!write}: the bytes [src[pos, pos+len)] land in host
    memory at completion time. The engine holds a view of [src] until
    then — the caller must not mutate that range before [k] fires
    (DESIGN.md §8). *)
val write_from :
  t ->
  context:int ->
  addr:Memory.Addr.t ->
  src:Bytes.t ->
  pos:int ->
  len:int ->
  ((unit, fault) result -> unit) ->
  unit

(** [write_u32_pair t ~context ~addr v0 v1 k] DMA-writes the 8 bytes
    [v0], [v1] as two little-endian u32s at [addr], [addr + 4] — a
    device status writeback. The values are captured at submission and
    land at completion, like {!write} of the same 8-byte buffer, without
    building one. *)
val write_u32_pair :
  t ->
  context:int ->
  addr:Memory.Addr.t ->
  int ->
  int ->
  ((unit, fault) result -> unit) ->
  unit

(** [access t ~context ~addr ~len k] performs a transfer with full timing,
    bus occupancy and IOMMU checking but without moving bytes. Used in
    spec-only payload mode, where frame contents are carried symbolically
    (see {!Ethernet.Frame}). *)
val access :
  t ->
  context:int ->
  addr:Memory.Addr.t ->
  len:int ->
  ((unit, fault) result -> unit) ->
  unit

(** Transfers failed with [`Injected]. *)
val injected_faults : t -> int

(** Expose the bus counters as gauges: [dma.transfers] (completed
    transfers), [dma.bytes_moved], [dma.busy_ns] (simulated time the bus
    spent busy) and [dma.injected_faults]. Each bus
    transaction also traces a ["dma"] slice covering its occupancy. *)
val register_metrics : t -> Sim.Metrics.t -> unit
