(** Memory-mapped I/O (programmed I/O) regions.

    A device exposes {!region}s backed by read/write callbacks — e.g. a
    CDNA context's 4 KB mailbox partition in NIC SRAM. The hypervisor hands
    a guest a {!mapping} of a region; because each region is mapped into at
    most the address space the hypervisor chose, a guest can only ever
    reach its own context (paper section 3.1). Revoking the mapping makes
    further accesses fault. *)

exception Fault of string
(** Raised on out-of-range offsets or accesses through a revoked mapping. *)

type region

(** [region ~size ~read ~write] creates a region of [size] bytes. Offsets
    passed to the callbacks are in [\[0, size)] and 4-byte aligned. *)
val region :
  size:int -> read:(offset:int -> int) -> write:(offset:int -> int -> unit) -> region

type mapping

(** [map r] creates a live mapping of [r]. *)
val map : region -> mapping

(** [revoke m] invalidates the mapping; subsequent accesses raise
    {!Fault}. Idempotent. *)
val revoke : mapping -> unit

val is_revoked : mapping -> bool

(** 32-bit PIO access through a mapping. [offset] must be 4-byte aligned
    and in range, else {!Fault}. *)

val read32 : mapping -> offset:int -> int
val write32 : mapping -> offset:int -> int -> unit

(** Total PIO writes through this mapping (diagnostic). *)
val write_count : mapping -> int
