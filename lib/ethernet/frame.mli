(** Ethernet frames.

    A frame carries addressing, flow bookkeeping for the closed-loop
    workload, and a {e payload specification}: a [(seed, length)] pair that
    deterministically defines every payload byte. The simulator can run in
    two modes:

    - {b materialized}: [data] holds the actual bytes, which are DMAed
      through simulated memory and verified with CRC-32 at the sink
      (integrity tests, protection-fault demos);
    - {b spec-only}: only the spec travels (fast mode for long benchmark
      runs); sizes and timing are identical.

    Wire accounting includes the 14-byte header, 4-byte FCS, and the
    preamble + inter-frame gap (20 bytes) for line-rate computations, so a
    "1 Gb/s" link saturates at the true ~941 Mb/s of TCP-sized payload
    goodput... or rather, at exactly the payload rate real Ethernet
    achieves for the configured payload size. *)

type kind =
  | Data  (** Workload payload frame. *)
  | Ack of int  (** Acknowledgement covering [n] payload frames. *)

type t = {
  src : Mac_addr.t;
  dst : Mac_addr.t;
  kind : kind;
  flow : int;  (** Workload connection id. *)
  seq : int;  (** Per-flow sequence number (first segment's). *)
  segments : int;
      (** TSO/GSO super-frames: logical MTU-sized segments this frame
          carries. The NIC serializes them back-to-back on the wire; CPU
          layers handle the super-frame as one unit — that amortization is
          exactly what TCP segmentation offload buys. 1 = ordinary frame. *)
  payload_len : int;  (** Total payload bytes (excluding headers/FCS). *)
  payload_seed : int;  (** Seed defining payload contents. *)
  data : Bytes.t option;  (** Materialized payload, if enabled. *)
}

(** [make ~src ~dst ~kind ~flow ~seq ~payload_len ~payload_seed ()] builds
    a spec-only frame. @raise Invalid_argument if [payload_len < 0] or
    larger than [segments] * 9000, or [segments < 1]. *)
val make :
  src:Mac_addr.t ->
  dst:Mac_addr.t ->
  kind:kind ->
  flow:int ->
  seq:int ->
  ?segments:int ->
  payload_len:int ->
  payload_seed:int ->
  unit ->
  t

(** An empty broadcast frame that preallocated frame slots hold until
    they are first filled; never sent. *)
val placeholder : t

(** Deterministic payload bytes for a spec. *)
val materialize_payload : seed:int -> len:int -> Bytes.t

(** [blit_payload ~seed ~len dst ~pos] writes the spec's bytes into a
    caller-owned buffer (the non-allocating datapath variant of
    {!materialize_payload}). @raise Invalid_argument on bad bounds. *)
val blit_payload : seed:int -> len:int -> Bytes.t -> pos:int -> unit

(** [with_data f] attaches the materialized payload. *)
val with_data : t -> t

(** [data_valid f] checks [f.data] against the spec (true for spec-only
    frames: nothing to contradict). *)
val data_valid : t -> bool

(** {1 Wire accounting} *)

(** Header (14) + FCS (4). *)
val overhead_bytes : int

(** Frame bytes on the wire: per-segment headers + max(payload, 46)
    padded minimum. *)
val wire_bytes : t -> int

(** Bits occupying the link including preamble (8 B) and IFG (12 B) per
    segment. *)
val wire_bits : t -> int
