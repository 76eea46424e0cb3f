(** Flat, allocation-free concurrent-flow state.

    Holds up to [capacity] live flows in preallocated int/Bytes arrays
    (the [Iommu] packed-int-key playbook): flows are addressed by a
    packed int key through an open-addressing linear-probe hash kept at
    load factor <= 0.5, per-flow fields are parallel arrays indexed by a
    slot id, and deletion backward-shifts the probe cluster so chains
    never rot. The insert / complete / expire / per-packet paths are
    [\[@cdna.hot\]]: statically allocation-free ([cdna_flow] A6) and
    safe to call per packet at 10^6 concurrent flows.

    Slot ids are stable for the lifetime of a flow and are reused after
    release; functions returning a slot use [-1] for "table full /
    absent" and [-2] for "duplicate key" so the hot path never builds a
    result value. *)

type t

(** [create ~capacity] preallocates a table for at most [capacity]
    concurrent flows (hash space is the next power of two >= 2x that).
    @raise Invalid_argument if [capacity <= 0]. *)
val create : capacity:int -> t

(** [pack ~src ~dst] packs two 31-bit endpoint ids into one
    non-negative int key.
    @raise Invalid_argument if either is outside [0, 2^31). *)
val pack : src:int -> dst:int -> int

val src_of_key : int -> int
val dst_of_key : int -> int

(** [insert t ~key ~pkts ~now] admits a flow of [pkts] packets arriving
    at [now] (ns). [pkts = 0] admits an {e embryonic} flow (a SYN with
    no payload — the SYN-flood scenario) that can only be expired.
    Returns the assigned slot, [-1] if the table is full ([rejected_full]
    counted) or [-2] if [key] is already live ([rejected_dup] counted).
    The full check runs before the duplicate probe — the hot path never
    probes a full table — so at capacity a duplicate also reports [-1]. *)
val insert : t -> key:int -> pkts:int -> now:int -> int

(** [find t ~key] returns the live slot for [key], or [-1]. *)
val find : t -> key:int -> int

(** [complete t ~slot ~now] finishes the flow in [slot], releases the
    slot, and returns its completion latency [now - arrival] in ns. *)
val complete : t -> slot:int -> now:int -> int

(** [expire t ~slot] drops the flow without completing it (SYN timeout,
    churn eviction). *)
val expire : t -> slot:int -> unit

(** [dec_remaining t ~slot] consumes one packet of the flow's backlog
    and returns the packets still owed (0 = ready to complete). *)
val dec_remaining : t -> slot:int -> int

(** {2 Read-out} *)

val live : t -> int
val peak_live : t -> int
val completed : t -> int
val expired : t -> int
val rejected_full : t -> int
val rejected_dup : t -> int
val key_of_slot : t -> int -> int
val remaining : t -> slot:int -> int
val total_pkts : t -> slot:int -> int
val arrived_at : t -> slot:int -> int
val is_embryonic : t -> slot:int -> bool

(** [iter_live t f] calls [f slot] for every live slot in increasing
    slot order (deterministic; diagnostics and tests only — not hot). *)
val iter_live : t -> (int -> unit) -> unit
