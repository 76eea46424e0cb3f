(** Descriptor sequence numbers (paper section 3.3).

    The hypervisor stamps each enqueued DMA descriptor with a strictly
    increasing sequence number modulo 2^16; the NIC verifies continuity
    before using a descriptor. Because a stale descriptor — one reused
    from an earlier trip around the ring — carries a sequence number
    exactly [ring_slots] behind the expected value, keeping the modulus at
    least twice the ring size guarantees staleness is always detected
    (no aliasing). *)

(** 2^16. *)
val modulus : int

(** Largest ring size for which stale descriptors cannot alias
    ([modulus / 2]). *)
val max_ring_slots : int

(** [next c] advances a counter. *)
val next : int -> int

(** [continuous ~expected ~got] — does [got] continue the sequence? *)
val continuous : expected:int -> got:int -> bool

(** The sequence number a stale descriptor would carry: the expected value
    minus the ring size, modulo {!modulus}. *)
val stale_value : expected:int -> ring_slots:int -> int
