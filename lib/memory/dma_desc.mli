(** DMA descriptor wire format.

    The paper (section 3.4) observes that any NIC DMA descriptor has three
    fields of interest — address, length, flags — plus, for CDNA, a
    sequence number. We fix one 16-byte little-endian layout:

    {v
    offset 0  : u64  buffer physical address
    offset 8  : u32  buffer length in bytes
    offset 12 : u16  flags
    offset 14 : u16  sequence number
    v}

    Descriptors live in rings in host memory and are read and written
    through {!Phys_mem}, exactly as hardware would fetch them over DMA —
    so a stale or foreign descriptor misbehaves the way the paper
    describes. *)

type t = { addr : Addr.t; len : int; flags : int; seqno : int }

(** Size of one serialized descriptor in bytes (16). *)
val size_bytes : int

(** Flag bits. *)

val flag_end_of_packet : int

(** [write mem ~at d] serializes [d] at physical address [at].
    @raise Invalid_argument if a field is out of range
    ([len] and [flags], [seqno] must fit their widths). *)
val write : Phys_mem.t -> at:Addr.t -> t -> unit

(** [read mem ~at] deserializes a descriptor. *)
val read : Phys_mem.t -> at:Addr.t -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
