(** Flat, allocation-free concurrent-flow state.

    Holds up to [capacity] live flows in preallocated int/Bytes arrays.
    Per-flow fields are parallel arrays indexed by a slot id; free slots
    sit on a LIFO stack, so the most recently released slot is the next
    one assigned. The table keeps no key index: callers hold the slot
    [insert] returns. The insert / complete / expire / per-packet paths
    are [\[@cdna.hot\]]: statically allocation-free ([cdna_flow] A6) and
    safe to call per packet at 10^6 concurrent flows.

    Slot ids are stable for the lifetime of a flow and are reused after
    release; [insert] returns [-1] for "table full" so the hot path never
    builds a result value. *)

type t

(** [create ~capacity] preallocates a table for at most [capacity]
    concurrent flows.
    @raise Invalid_argument if [capacity <= 0]. *)
val create : capacity:int -> t

(** [insert t ~pkts ~now] admits a flow of [pkts] packets arriving at
    [now] (ns). [pkts = 0] admits an {e embryonic} flow (a SYN with no
    payload — the SYN-flood scenario) that can only be expired. Returns
    the assigned slot, or [-1] if the table is full ([rejected_full]
    counted).
    @raise Invalid_argument if [pkts < 0]. *)
val insert : t -> pkts:int -> now:int -> int

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
val remaining : t -> slot:int -> int
val total_pkts : t -> slot:int -> int
val arrived_at : t -> slot:int -> int
val is_embryonic : t -> slot:int -> bool

(** [iter_live t f] calls [f slot] for every live slot in increasing
    slot order (deterministic; diagnostics and tests only — not hot). *)
val iter_live : t -> (int -> unit) -> unit
