(** Hash table keyed by [int].

    The monomorphic table for the simulator's int-keyed lookups (MAC
    addresses, flow and connection ids, domain ids, sequence numbers):
    integer equality and an identity hash instead of the polymorphic
    [compare_val] / [caml_hash] a [('a, 'b) Hashtbl.t] pays per lookup.
    The keys it serves are dense or sequential, which an identity hash
    spreads evenly.

    There is no hash-order iteration: {!iter_sorted} visits keys in
    ascending order, so anything it fans out to is deterministic. *)

type 'a t

val create : int -> 'a t
val find_opt : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool
val replace : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit
val reset : 'a t -> unit

(** [iter_sorted t f] calls [f key value] for every binding, in
    ascending key order. *)
val iter_sorted : 'a t -> (int -> 'a -> unit) -> unit
