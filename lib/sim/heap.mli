(** Imperative 4-ary min-heap keyed by [int].

    Priority queue used by the event queue. Elements are ordered by the
    integer key given at push time; ties are broken by insertion order
    (FIFO), which the discrete-event engine relies on for deterministic
    same-timestamp ordering.

    The implementation is unboxed — an interleaved [int array] of
    (key, slot) pairs plus per-slot value/seq arenas — so pushes and
    pops on the simulator hot path allocate nothing (amortized), never
    call polymorphic compare, and sift only plain ints (no write
    barriers). Values never move once pushed, which allows stable
    handles ({!push_handle}) that go stale automatically when their
    entry is popped. Popped value slots are overwritten with the
    [dummy] element, so the heap does not retain popped payloads. *)

type 'a t

(** [create ~dummy ()] makes an empty heap. [dummy] fills unused value
    slots; it is never returned by {!pop}/{!peek}. [max_entries] caps the
    number of concurrently pending entries (default and upper bound
    [2^24], the handle encoding's slot space): a push that would exceed
    it raises [Invalid_argument] {e before} mutating any heap state, so a
    caller that tracks its own pending count can rely on the heap being
    unchanged when the push fails. *)
val create : ?max_entries:int -> dummy:'a -> unit -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

(** [push h ~key v] inserts [v] with priority [key] (smaller pops first). *)
val push : 'a t -> key:int -> 'a -> unit

(** [push_handle h ~key v] is {!push} returning a handle to the pending
    entry. The handle stays valid until the entry is popped; {!get} and
    {!set} on a stale handle fail without touching anything (per-slot
    generation check). At most [2^24] entries may be pending at once. *)
val push_handle : 'a t -> key:int -> 'a -> int

(** [get h handle] is the value of the pending entry, or [None] if the
    entry was already popped (or the handle is garbage). *)
val get : 'a t -> int -> 'a option

(** [set h handle v] replaces the value of the pending entry, leaving
    its key and FIFO rank untouched. Returns [false] (doing nothing) if
    the entry was already popped. *)
val set : 'a t -> int -> 'a -> bool

(** [pop h] removes and returns the minimum element, or [None] when empty. *)
val pop : 'a t -> 'a option

(** The [_exn] accessors are the allocation-free primitives behind the
    option-returning variants: guarded by {!is_empty}, an event-loop
    iteration built on them allocates nothing. Each raises
    [Invalid_argument] when the heap is empty. *)

(** [pop_exn h] removes and returns the minimum element.
    @raise Invalid_argument when empty. *)
val pop_exn : 'a t -> 'a

(** [min_key_exn h] is the key of the minimum element.
    @raise Invalid_argument when empty. *)
val min_key_exn : 'a t -> int
