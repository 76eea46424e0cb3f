(** The guest-side benchmark application.

    Reimplements the paper's lightweight benchmark program (section 5.1):
    it distributes traffic across a configurable number of connections and
    balances bandwidth across them. Per guest, the program owns a set of
    {e streams} — (network stack, connection) pairs, possibly spread over
    several stacks/NICs — and:

    - {b transmit role}: keeps every connection's window full, batching
      refills per stream and paying user-space CPU time per packet;
    - {b receive role}: consumes delivered frames, verifies them against
      their connection, and acknowledges to the peer (out of band — ack
      wire traffic is folded into the CPU cost model; see DESIGN.md).

    Balancing: refills round-robin across a stream's connections, so no
    connection starves another. *)

type t

(** [create engine ~post_user ~costs ~ack:(fun conn n -> ...) ()] —
    [post_user] schedules user-context work for this guest; [ack] tells
    the peer that [n] packets of [conn] were consumed (receive role).
    Window refills come at most every 80 us, so that
    acknowledgements batch as they would under a real event loop.
    [gso_segments > 1] hands the stack TSO/GSO super-frames of up to that
    many MTU segments, amortizing all per-frame CPU costs — only
    meaningful when the device can segment in hardware. *)
val create :
  Sim.Engine.t ->
  ?gso_segments:int ->
  post_user:(cost:Sim.Time.t -> (unit -> unit) -> unit) ->
  costs:Guestos.Os_costs.t ->
  ack:(Connection.t -> int -> unit) ->
  unit ->
  t

(** [add_stream t ~stack ~tx ~rx] registers a stack with the connections
    this program transmits on ([tx] — their windows are kept full) and
    those it only receives from ([rx]). Installs the stack's receive
    handler and writable hook. *)
val add_stream :
  t ->
  stack:Guestos.Net_stack.t ->
  tx:Connection.t list ->
  rx:Connection.t list ->
  unit

(** Start the transmit role: fill all windows. (No-op for pure receivers:
    with no credits consumed nothing is sent.) *)
val start : t -> unit

(** The peer acknowledged [n] packets of [conn]: return the credits and
    keep the window full. Called (indirectly) by the experiment peer. *)
val on_credit : t -> Connection.t -> int -> unit

(** Frames consumed by this guest's application. *)
val consumed : t -> int

(** Frames delivered that matched no registered connection. *)
val stray_frames : t -> int
