(** 48-bit Ethernet MAC addresses.

    CDNA associates a unique MAC address with each NIC context and uses it
    to demultiplex received traffic (paper section 3.1). *)

type t

(** [make i] is a deterministic locally-administered unicast address for
    index [i] (distinct for distinct [i] in [\[0, 2^40)]).
    @raise Invalid_argument outside that range. *)
val make : int -> t

val broadcast : t

val to_int48 : t -> int
val equal : t -> t -> bool
val is_broadcast : t -> bool
val is_multicast : t -> bool
val to_string : t -> string
