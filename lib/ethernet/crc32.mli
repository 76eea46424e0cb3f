(** CRC-32 (IEEE 802.3), used as the frame check sequence and as the
    payload-integrity checksum in end-to-end tests. Implemented with
    slicing-by-8. *)

(** [digest b] is the CRC-32 of all of [b]. *)
val digest : Bytes.t -> int

(** [digest_sub b ~pos ~len] checksums a slice.
    @raise Invalid_argument on bad bounds. *)
val digest_sub : Bytes.t -> pos:int -> len:int -> int
