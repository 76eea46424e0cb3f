(** The ideal traffic peer at the far end of one link.

    Stands in for the paper's load-generator machine, which was "tuned so
    that it could easily saturate two NICs both transmitting and receiving
    so that it would never be the bottleneck": it has no CPU model and
    reacts instantly, limited only by the link rate and by per-connection
    windows.

    - {b Sink role} (guest-transmit tests): receives data frames, records
      them on their connection, and returns window credits to the guest's
      benchmark program after [ack_delay].
    - {b Source role} (guest-receive tests): a window-limited go-back-N
      sender per registered connection, pacing frames onto the link
      back-to-back and round-robin across connections. Receivers accept
      in order ({!Workload.Connection.record_received}); on loss the
      acknowledgement stream stalls and, after [rto], the peer resends
      from the window base — reproducing TCP's goodput collapse under
      receive-side overload, which drives the paper's Figure 4 decline. *)

type t

val create :
  Sim.Engine.t ->
  link:Ethernet.Link.t ->
  mac:Ethernet.Mac_addr.t ->
  ?rng:Sim.Rng.t ->
  (* jitters the 60 us ack delay by +/-25% to decorrelate flows *)
  ?materialize:bool ->
  unit ->
  t

val mac : t -> Ethernet.Mac_addr.t

(** [add_sink t conn ~credit] registers a guest-transmit connection;
    [credit n] is invoked with batches of acknowledged packets, coalesced
    over the ack delay (delayed cumulative acks). *)
val add_sink : t -> Workload.Connection.t -> credit:(int -> unit) -> unit

(** [add_source t conn] registers a guest-receive connection (its [src]
    must be this peer's MAC). [from_seq] starts the go-back-N window at
    that sequence number instead of 0 — used when a flow moves between
    peers (e.g. across a context migration): resume from the last
    acknowledged position. *)
val add_source : t -> ?from_seq:int -> Workload.Connection.t -> unit

(** Current [(base, next)] go-back-N window of a source connection. *)
val source_position : t -> Workload.Connection.t -> (int * int) option

(** Begin transmitting on source connections. *)
val start : t -> unit

(** The guest acknowledged [n] packets of a source connection. *)
val on_ack : t -> Workload.Connection.t -> int -> unit

(** Resume sending on source connections (bind to the NIC's uncongested
    hook). *)
val kick : t -> unit

(** Frames resent after a timeout. *)
val retransmissions : t -> int
