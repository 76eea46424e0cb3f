(** Full-duplex point-to-point Ethernet link.

    Each direction serializes frames at the link rate (including preamble
    and inter-frame gap) and delivers them after a 500 ns propagation delay.
    Senders are paced by the [on_wire_free] callback: the next frame should
    be handed to the link when the previous one has left the transmitter,
    which is how the NIC models its MAC. The link itself never queues more
    than the frame being serialized plus those the sender chose to push —
    pushed frames queue FIFO. *)

type t

type side = A | B

val create :
  Sim.Engine.t ->
  ?rate_bps:int ->
  (* default 1 Gb/s *)
  unit ->
  t

val rate_bps : t -> int

(** [attach t side f] sets the receive handler for frames arriving {e at}
    [side]. *)
val attach : t -> side -> (Frame.t -> unit) -> unit

(** [send t ~from frame ~on_wire_free] transmits [frame] from side [from].
    [on_wire_free] fires when the frame has fully left the transmitter
    (serialization done), i.e. when the next frame could start. Delivery to
    the other side happens one propagation delay later. *)
val send : t -> from:side -> Frame.t -> on_wire_free:(unit -> unit) -> unit

(** True when the given direction is currently serializing a frame. *)
val busy : t -> from:side -> bool

(** Frames and payload bytes delivered toward the given side. *)
val delivered : t -> side -> int * int

(** {1 Fault injection} *)

type verdict = [ `Pass | `Drop | `Corrupt ]

(** [set_tamper t (Some f)] consults [f] for every frame handed to
    {!send}. The frame always serializes (the sender pays wire time
    either way); [`Drop] suppresses delivery, [`Corrupt] delivers a
    same-size frame whose payload fails [Frame.data_valid] /
    [Frame.payload_crc]. Typically [f] forwards to
    [Sim.Fault_inject.fire]. *)
val set_tamper : t -> (Frame.t -> verdict) option -> unit

(** Frames suppressed / corrupted by the tamper hook. *)
val dropped : t -> int

val corrupted : t -> int
