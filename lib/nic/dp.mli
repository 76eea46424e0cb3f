(** Multi-context NIC datapath.

    The hardware engine shared by every NIC model in this repository:

    - the {!Conventional} NIC instantiates it with one context (plus
      promiscuous receive, for the driver-domain bridge);
    - the CDNA NIC instantiates it with 32 contexts, sequence-number
      checking and bit-vector interrupt delivery (see the [cdna] library).

    Mechanics, mirroring paper sections 2.2 and 4:

    - Each context owns transmit and receive descriptor rings in {e host}
      memory ({!Ring}); the NIC learns about new descriptors via doorbells
      and fetches them with real DMA transfers through the shared
      {!Bus.Dma_engine}.
    - Transmit is two-stage (descriptor/payload fetch pipelined with wire
      serialization) and services active contexts round-robin — the
      fair interleaving of paper section 3.1.
    - Receive demultiplexes by destination MAC into the owning context,
      buffers packets in the shared on-NIC packet buffer, consumes the
      context's posted receive descriptors, and DMA-writes payloads to
      host buffers.
    - Completion state (consumer indices) is DMA-written back to a
      per-context status block, then the {!Shell} is notified so it can
      raise a (coalesced) interrupt.
    - When [seqno_checking] is on, every descriptor's sequence number must
      continue the per-context sequence; a mismatch raises a {e guest-
      specific protection fault} and halts the context (paper 3.3).

    Flow control: the receive buffer tracks a high/low watermark and fires
    a hook when occupancy falls back below the low one, which restarts a
    peer that idled while the NIC was backed up. The peers do not pause
    (like the paper's testbed, loss and retransmission govern overload),
    so frames are dropped when the buffer truly overflows. *)

type t

type fault =
  | Seqno_mismatch of { expected : int; got : int }
  | Missing_meta  (** Descriptor with no staged packet metadata. *)
  | Dma_fault of Bus.Dma_engine.fault
  | Producer_backwards of { published : int; prod : int }
      (** A doorbell whose producer index [prod] is below the one
          already [published]. *)

(** Direction of the ring a doorbell/fault refers to. *)
type dir = Tx | Rx

val create :
  Sim.Engine.t ->
  mem:Memory.Phys_mem.t ->
  dma:Bus.Dma_engine.t ->
  config:Nic_config.t ->
  contexts:int ->
  dma_context_base:int ->
  (* IOMMU context id of context [i] is [dma_context_base + i]. *)
  notify:(ctx:int -> unit) ->
  on_fault:(ctx:int -> dir -> fault -> unit) ->
  unit ->
  t

val config : t -> Nic_config.t
val contexts : t -> int

(** The shared DMA engine this NIC uses (for IOMMU installation). *)
val dma : t -> Bus.Dma_engine.t

(** IOMMU context id the datapath transfers with on behalf of context
    [ctx]: [dma_context_base + ctx]. *)
val dma_context : t -> ctx:int -> int

(** Attach the MAC to its link; [side] is this NIC's side. *)
val attach_link : t -> Ethernet.Link.t -> side:Ethernet.Link.side -> unit

(** {1 Context control (hypervisor / firmware)} *)

(** [activate t ~ctx ~mac] brings a context up with its unique MAC.
    @raise Invalid_argument if active or out of range. *)
val activate : t -> ctx:int -> mac:Ethernet.Mac_addr.t -> unit

(** [deactivate t ~ctx] revokes a context: pending work is aborted,
    in-flight DMA abandoned, queued completions dropped. Idempotent. *)
val deactivate : t -> ctx:int -> unit

(** Opaque architectural image of one context, for hypervisor-mediated
    context paging when guests oversubscribe the hardware contexts. *)
type saved_ctx

(** [save_context t ~ctx] snapshots an active context's rings, cursors,
    expected seqnos, staged metadata and unread completions. Read-only —
    the caller must still revoke/deactivate the slot, whose epoch bump
    unwinds in-flight work. Transmit state is rolled back losslessly over
    staged-but-unwired packets (they are re-fetched after restore); the
    frame currently on the wire, if this context's, is credited as
    completed. Receive losses are left to peer retransmission.
    @raise Invalid_argument if the context is inactive or faulted. *)
val save_context : t -> ctx:int -> saved_ctx

(** [restore_context t ~ctx s] installs a saved image on a reset slot and
    kicks the engines: transmission resumes exactly where the save left
    off. Cursors and seqnos are written hardware-side (not through the
    doorbell paths, which reject producer rewinds). Pending completions
    re-notify the shell.
    @raise Invalid_argument if the slot is active or faulted. *)
val restore_context : t -> ctx:int -> saved_ctx -> unit

val is_active : t -> ctx:int -> bool
val mac_of : t -> ctx:int -> Ethernet.Mac_addr.t option

(** A context that receives all frames not matching any context MAC
    (promiscuous mode for the software-bridge configurations). *)
val set_promiscuous : t -> ctx:int option -> unit

(** Contexts halted by a protection fault resume only after
    reactivation. *)
val is_faulted : t -> ctx:int -> bool

(** {1 Ring and status setup} *)

val set_tx_ring : t -> ctx:int -> Ring.t -> unit
val set_rx_ring : t -> ctx:int -> Ring.t -> unit

(** Host address receiving the 8-byte [(tx_cons, rx_cons)] writeback. *)
val set_status_addr : t -> ctx:int -> Memory.Addr.t -> unit

(** Reset the expected next sequence number for both rings of a context
    (done by the hypervisor at context assignment). *)
val set_expected_seqno : t -> ctx:int -> tx:int -> rx:int -> unit

(** {1 Doorbells (from mailbox writes)} *)

(** [tx_doorbell t ~ctx ~prod] publishes the driver's new transmit
    producer index (free-running). A [prod] below the published one
    faults the context ([Producer_backwards]) and leaves its state as it
    was. *)
val tx_doorbell : t -> ctx:int -> prod:int -> unit

val rx_doorbell : t -> ctx:int -> prod:int -> unit

(** {1 Driver-side packet metadata}

    Real hardware parses packet headers out of the DMA-ed bytes; the
    simulator carries frame metadata out of band. The driver stages one
    frame of metadata per transmit descriptor, in ring order. *)

val stage_tx_meta : t -> ctx:int -> Ethernet.Frame.t -> unit

(** {1 Completions (drained by the driver)} *)

(** [take_tx_completions t ~ctx] returns and clears the count of transmit
    descriptors completed since last asked. *)
val take_tx_completions : t -> ctx:int -> int

(** [take_rx_completions t ~ctx ~max] returns up to [max] received frames
    with their free-running receive-ring indices. *)
val take_rx_completions : t -> ctx:int -> max:int -> (int * Ethernet.Frame.t) list

(** Received frames waiting in the context's completion queue. *)
val rx_completions_pending : t -> ctx:int -> int

(** {1 Flow control} *)

(** True when the shared receive buffer is above the high watermark. *)
val rx_congested : t -> bool

(** Hook fired when occupancy falls back below the low watermark. *)
val set_uncongested_hook : t -> (unit -> unit) -> unit

(** {1 Statistics} *)

(** Shared packet-buffer occupancy (accounting diagnostics; both return to
    zero when the datapath is idle). *)
val tx_buffer_in_use : t -> int

val rx_buffer_in_use : t -> int

(** Expose aggregate and per-context gauges; they are the only read-out
    of the datapath's counters. Aggregate: [nic.tx_frames],
    [nic.tx_bytes] (payload bytes), [nic.rx_frames], [nic.rx_bytes]
    (delivered bytes), [nic.rx_no_ctx_drops] (no active context matched
    the MAC), [nic.rx_overflow_drops] (shared packet buffer full),
    [nic.rx_truncated] (frames delivered short because the posted receive
    descriptor was smaller than the frame) and [nic.faults]. Per context,
    with a ["ctx"] label appended: [nic.ctx.tx_frames] and
    [nic.ctx.rx_frames]. [labels] must uniquely identify this NIC
    instance, e.g. [[("nic", "nic0")]]. *)
val register_metrics :
  t -> Sim.Metrics.t -> labels:(string * string) list -> unit
