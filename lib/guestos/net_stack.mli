(** Simplified guest network stack.

    The kernel layer between the benchmark application and a network
    device. It charges per-packet and per-batch kernel CPU costs in both
    directions, queues transmit bursts when the device is momentarily full
    and drains the queue on transmit completions, and fans received frames
    up to the application handler.

    The paper's per-packet "Guest OS" time is the sum of this module's
    costs and the driver's. *)

type t

(** [create ~post_kernel ~costs ~netdev] — [post_kernel] schedules kernel
    work in the owning domain ([cost] then continuation). *)
val create :
  post_kernel:(cost:Sim.Time.t -> (unit -> unit) -> unit) ->
  costs:Os_costs.t ->
  netdev:Netdev.t ->
  t

(** [send t frames] accepts a burst from the application (call from user
    context; the stack charges its kernel time itself). Frames beyond
    {!capacity} are still queued — the application should respect
    [capacity] to bound memory. *)
val send : t -> Ethernet.Frame.t list -> unit

(** Frames the stack can currently accept without growing its backlog. *)
val capacity : t -> int

(** [set_rx_handler t f] — [f] receives frame batches after kernel receive
    processing; it runs in kernel context, so the application should post
    user work from it. *)
val set_rx_handler : t -> (Ethernet.Frame.t list -> unit) -> unit

(** Fires (in kernel context) when [capacity] becomes positive again. *)
val set_writable_hook : t -> (unit -> unit) -> unit

val frames_sent : t -> int
val frames_received : t -> int
val backlog : t -> int
