(** Descriptor-ring layout and producer/consumer index arithmetic.

    A ring is a fixed array of {!Memory.Dma_desc} slots in host memory,
    shared between a driver (producer of tx descriptors / rx buffers) and
    the NIC (consumer). Indices are {e free-running} counters; the slot is
    the index modulo the ring size, and fullness is the index difference —
    the classic lock-free single-producer/single-consumer protocol the
    paper describes in section 2.2. *)

type t

(** [create ~base ~slots ()] describes a ring of [slots] descriptors
    starting at physical address [base]. [slots] must be a power of two in
    [\[2, 32768\]] — the upper bound keeps sequence numbers unambiguous
    (paper section 3.3: the max sequence number must be at least twice the
    ring size). [desc_bytes] is the descriptor stride, from the device's
    negotiated {!Memory.Desc_layout} (default: the 16-byte layout). *)
val create : base:Memory.Addr.t -> slots:int -> ?desc_bytes:int -> unit -> t

val base : t -> Memory.Addr.t
val slots : t -> int

(** Bytes of host memory occupied by the ring. *)
val size_bytes : t -> int

(** Physical address of the slot for free-running index [idx]. *)
val slot_addr : t -> int -> Memory.Addr.t

(** Entries available to the consumer: [prod - cons].
    @raise Invalid_argument if negative (protocol violation). *)
val available : prod:int -> cons:int -> int

(** Free slots left for the producer. *)
val space : t -> prod:int -> cons:int -> int

val is_empty : prod:int -> cons:int -> bool
val is_full : t -> prod:int -> cons:int -> bool
