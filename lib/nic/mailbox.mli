(** Per-context mailbox SRAM with the two-level event bit-vector hierarchy.

    Models the RiceNIC CDNA hardware of paper section 4: 128 KB of SRAM
    divided into 32 page-sized (4 KB) partitions, one per hardware context.
    The lowest 24 words of each partition are {e mailboxes}. Any PIO write
    to a mailbox sets the corresponding bit in a per-context bit vector and
    the context's bit in a global bit vector; the firmware finds work by
    decoding the hierarchy (lowest set bit first) and clears events
    per-context.

    Each partition is exposed as an {!Bus.Mmio.region} so the hypervisor
    can map exactly one partition into a guest. *)

type t

(** [create ~contexts ~on_event] builds the SRAM block. [on_event] fires on
    every mailbox write (the hardware's "global mailbox event"), after the
    bit vectors have been updated. *)
val create : contexts:int -> on_event:(unit -> unit) -> t

(** MMIO region of one context's 4 KB partition. Reads return the last
    value written; writes beyond the mailbox words hit general-purpose
    shared memory (also readable/writable). *)
val region : t -> ctx:int -> Bus.Mmio.region

(** Firmware side: current value of a mailbox word. *)
val value : t -> ctx:int -> mbox:int -> int

(** Firmware side: write a mailbox word without raising an event (used for
    NIC-to-driver communication through the shared partition). *)
val poke : t -> ctx:int -> mbox:int -> int -> unit

(** First-level bit vector: bit [c] set iff context [c] has pending
    events. *)
val pending_contexts : t -> int

(** Second-level vector for one context. *)
val pending_boxes : t -> ctx:int -> int

(** [next_event t] decodes the hierarchy: lowest pending context, lowest
    pending mailbox within it — without clearing. *)
val next_event : t -> (int * int) option

(** [clear_event t ~ctx ~mbox] clears one event bit (and the context's
    first-level bit when no events remain). *)
val clear_event : t -> ctx:int -> mbox:int -> unit

(** [clear_context t ~ctx] clears all events of a context at once (the
    hardware supports multi-event clear messages). *)
val clear_context : t -> ctx:int -> unit

(** Save area for one partition's image: its written words and
    pending-event bits. Used by hypervisor-mediated context paging when
    guests oversubscribe the hardware contexts; one area serves every
    page-out of the same guest. *)
type saved_partition

(** An empty save area. *)
val save_area : unit -> saved_partition

(** [save_partition t ~ctx s] copies the partition's written prefix (up
    to the highest word that may be nonzero) and its pending-event bits
    into [s], then zeroes the partition and clears its events — the next
    guest mapped onto [ctx] must not observe the victim's data. *)
val save_partition : t -> ctx:int -> saved_partition -> unit

(** [restore_partition t ~ctx s] makes partition [ctx] hold the image in
    [s], and 0 past it. Pending events saved with the image are re-armed
    (and [on_event] fired) without counting as new hardware events. *)
val restore_partition : t -> ctx:int -> saved_partition -> unit

(** Expose [mailbox.events] as a gauge under [labels]. *)
val register_metrics :
  t -> Sim.Metrics.t -> labels:(string * string) list -> unit
