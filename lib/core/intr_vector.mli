(** Interrupt bit vectors (paper section 3.2).

    The CDNA NIC tracks which contexts have new completion state since the
    last physical interrupt in a bit vector, DMA-writes the vector into a
    circular buffer in hypervisor memory, and only then raises the
    physical interrupt. The buffer uses a producer/consumer protocol so
    vectors are never overwritten before the hypervisor processes them.

    The NIC side posts vectors through the DMA engine (real memory
    writes); the hypervisor side drains them from memory in its interrupt
    service routine. *)

type t

(** [create ~mem ~dma ~base ~slots ~dma_context] — the buffer occupies
    [slots] 8-byte vector slots starting at hypervisor address [base].
    [slots] must be a power of two in [\[2, 4096\]]. *)
val create :
  mem:Memory.Phys_mem.t ->
  dma:Bus.Dma_engine.t ->
  base:Memory.Addr.t ->
  slots:int ->
  dma_context:int ->
  t

val slots : t -> int
val base : t -> Memory.Addr.t

(** IOMMU context id the vector writes go out as. *)
val dma_context : t -> int

(** {1 NIC side} *)

(** [try_post t ~bits ~on_done] DMA-writes the vector into the next slot.
    Returns false (without side effects) when the buffer is full — the NIC
    must hold its interrupt and retry. [on_done] fires when the write has
    landed in host memory (the NIC raises its physical interrupt there). *)
val try_post : t -> bits:int -> on_done:(unit -> unit) -> bool

(** {1 Hypervisor side} *)

(** [drain t] reads all pending vectors from memory (in order) and
    advances the consumer. *)
val drain : t -> int list

(** {1 Counters} *)

val posted : t -> int
val drained : t -> int
