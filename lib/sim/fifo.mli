(** FIFO queue of values that does not keep popped values alive.

    The datapath's per-packet queues (frames, work items, pfn pools)
    live here rather than in [Stdlib.Queue]. A [Queue] cell keeps its
    [next] pointer after it is popped, and [Queue.add] links each new
    cell into the old tail: once a minor collection has promoted the
    tail of a non-empty queue, every cell pushed after it is reachable
    from an old block, so the next minor collection promotes all of
    them, popped or not, together with the values they hold.

    Here values sit in fixed chunks of 64 slots, small enough to be
    allocated on the minor heap, and {!pop} overwrites each vacated slot
    with the [dummy] given to {!create}. A popped value is then
    reachable from nowhere and dies young; only values still queued at
    a minor collection are promoted. No chunk is allocated before the
    first {!push}, and one drained chunk is kept for reuse, so a queue
    whose depth stays bounded allocates nothing in steady state.

    Use {!Slot_ring} instead when the items are mutable records that
    can be filled in place and reused. *)

type 'a t

(** [create ~dummy] is an empty queue. [dummy] fills vacated slots; it
    is never returned. *)
val create : dummy:'a -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push t x] appends [x] at the tail. *)
val push : 'a t -> 'a -> unit

(** [pop t] removes and returns the head.
    @raise Invalid_argument if [t] is empty. *)
val pop : 'a t -> 'a

(** [peek t] is the head, left in place.
    @raise Invalid_argument if [t] is empty. *)
val peek : 'a t -> 'a

(** [transfer src dst] appends every value of [src] to [dst], in order,
    and leaves [src] empty. [src] and [dst] must be distinct. *)
val transfer : 'a t -> 'a t -> unit
