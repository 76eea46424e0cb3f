(** Growable FIFO of preallocated mutable slots.

    A strictly-FIFO completion queue (DMA transfers in submission order,
    link arrivals in send order) keeps its pending entries here instead
    of in one closure per event: {!push} hands back the tail slot for the
    caller to fill in place, {!pop} hands back the head slot. Slots are
    built by the [make] function given to {!create}, 16 up front and then
    only when the ring doubles, so a ring that stays at a bounded depth
    allocates nothing in steady state.

    A popped slot is recycled by a later {!push}: copy what you need out
    of it before running anything that could push. *)

type 'a t

(** [create make] is an empty ring whose slots [make] builds. *)
val create : (unit -> 'a) -> 'a t

(** [push t] appends a slot at the tail and returns it for filling,
    growing the ring when it is full. *)
val push : 'a t -> 'a

(** [pop t] removes and returns the head slot.
    @raise Invalid_argument if the ring is empty. *)
val pop : 'a t -> 'a
