(** Network-device interface between a protocol stack and a driver.

    Every driver flavour — {!Nic_driver} (native and CDNA guest) and
    {!Netfront} — exposes one of these; {!Net_stack} (and {!Netback}, for
    the driver domain) consume it. All callbacks are invoked in the owning
    domain's kernel context; cost accounting happens inside the
    implementations. *)

type t

(** [create ~mac ~send ~tx_space] — [send] submits a batch for
    transmission (the device takes ownership), [tx_space] reports how many
    more frames the device can currently accept. *)
val create :
  mac:Ethernet.Mac_addr.t ->
  send:(Ethernet.Frame.t list -> unit) ->
  tx_space:(unit -> int) ->
  t

val mac : t -> Ethernet.Mac_addr.t
val send : t -> Ethernet.Frame.t list -> unit
val tx_space : t -> int

(** {1 Upcalls installed by the consumer} *)

val set_rx_handler : t -> (Ethernet.Frame.t list -> unit) -> unit
val set_tx_done_handler : t -> (int -> unit) -> unit

(** Fires when transmit space becomes available again after exhaustion. *)
val set_writable_hook : t -> (unit -> unit) -> unit

(** {1 Upcall invocation (driver side)} *)

val deliver_rx : t -> Ethernet.Frame.t list -> unit
val notify_tx_done : t -> int -> unit
val notify_writable : t -> unit

(** {1 Counters} *)

val frames_sent : t -> int
val frames_received : t -> int
