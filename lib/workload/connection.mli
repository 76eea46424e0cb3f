(** A benchmark connection.

    The paper's evaluation uses "a multithreaded, event-driven, lightweight
    network benchmark program ... to distribute traffic across a
    configurable number of connections", balancing bandwidth across them.
    A connection here is a closed-loop, window-limited packet stream
    between one guest and the ideal peer: the sender may have at most
    [window] unacknowledged packets in flight, which reproduces TCP's
    flow-control behaviour without a TCP stack (see DESIGN.md).

    One [Connection.t] instance describes the stream; the sending side
    tracks credits, the receiving side counts deliveries and verifies
    payload integrity. *)

type t

(** [create ~id ~window ~payload_len ~src ~dst] — [src]/[dst] are the MACs
    of sender and receiver for the data direction. *)
val create :
  id:int ->
  window:int ->
  payload_len:int ->
  src:Ethernet.Mac_addr.t ->
  dst:Ethernet.Mac_addr.t ->
  t

val id : t -> int
val window : t -> int

(** {1 Sender side} *)

(** Packets that may be sent right now (window minus in-flight). *)
val credits : t -> int

(** [take_credits t n] consumes up to [n] credits, returning the number
    taken, and builds nothing — callers create frames with {!make_frame}. *)
val take_credits : t -> int -> int

(** [add_credits t n] returns credits (acknowledgement arrived). Clamped
    so in-flight never goes negative. *)
val add_credits : t -> int -> unit

(** Next frame of the stream ([seq] advances; payload seed is derived
    deterministically from [(id, seq)]). Passing [now] stamps the send
    time for end-to-end latency measurement. [segments > 1] builds a
    TSO/GSO super-frame covering that many sequence numbers at once, each
    carrying one [payload_len] segment. *)
val make_frame : ?now:Sim.Time.t -> ?segments:int -> t -> Ethernet.Frame.t

(** [frame_with_seq t seq] builds the frame for an explicit sequence
    number without advancing the stream — used by the retransmitting
    peer. Payload contents are identical to the original transmission;
    [now] re-stamps the send time (latency is measured from the last
    transmission, as TCP RTT estimators do). *)
val frame_with_seq : ?now:Sim.Time.t -> t -> seq:int -> Ethernet.Frame.t

val sent : t -> int

(** {1 Receiver side}

    Reception is cumulative and in-order, like TCP: only the next expected
    sequence number is accepted; anything else (a gap after loss, or a
    duplicate from retransmission) is rejected and must be retransmitted
    by the sender. *)

(** [record_received t frame] verifies and accepts or rejects the frame.
    With [now], an accepted frame whose send time was stamped contributes
    to the latency histogram. *)
val record_received :
  ?now:Sim.Time.t -> t -> Ethernet.Frame.t -> [ `Accepted | `Rejected ]

(** End-to-end delivery latencies (ns samples), sender stamp to in-order
    acceptance. *)
val latency : t -> Sim.Stats.Histogram.t

(** In-order frames delivered. *)
val received : t -> int

(** Frames rejected as out-of-order or duplicate. *)
val rejected : t -> int

val integrity_failures : t -> int

(** {1 Measurement} *)

val reset_counters : t -> unit
