(** Imperative 4-ary min-heap keyed by [int].

    Priority queue used by the event queue. Elements are ordered by the
    integer key given at push time; ties are broken by insertion order
    (FIFO), which the discrete-event engine relies on for deterministic
    same-timestamp ordering.

    The implementation is unboxed — an interleaved [int array] of
    (key, slot) pairs plus per-slot value/seq arenas — so pushes and
    pops on the simulator hot path allocate nothing (amortized), never
    call polymorphic compare, and sift only plain ints (no write
    barriers). Popped value slots are overwritten with the [dummy]
    element, so the heap does not retain popped payloads. *)

type 'a t

(** [create ~dummy ()] makes an empty heap. [dummy] fills unused value
    slots; it is never returned by {!pop_exn}. [max_entries] caps the
    number of concurrently pending entries (default [2^24]): a push that
    would exceed it raises [Invalid_argument] {e before} mutating any
    heap state. *)
val create : ?max_entries:int -> dummy:'a -> unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push h ~key v] inserts [v] with priority [key] (smaller pops first). *)
val push : 'a t -> key:int -> 'a -> unit

(** The accessors below return unboxed results: guarded by {!is_empty},
    an event-loop iteration built on them allocates nothing. Each raises
    [Invalid_argument] when the heap is empty. *)

(** [pop_exn h] removes and returns the minimum element.
    @raise Invalid_argument when empty. *)
val pop_exn : 'a t -> 'a

(** [min_key_exn h] is the key of the minimum element.
    @raise Invalid_argument when empty. *)
val min_key_exn : 'a t -> int
