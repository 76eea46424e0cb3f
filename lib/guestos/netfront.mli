(** Paravirtualized front-end network driver (guest side).

    The guest half of Xen's split driver (paper section 2.1): transmit
    requests are placed on the shared channel with the packet's page and
    handed to the driver domain; received packets arrive on the channel as
    pages flipped into the guest. The guest pays kernel time per packet,
    page-exchange hypercalls, and an event-channel notify per batch.

    Page exchange: transmit pages leave the guest (netback flips them) and
    replacement pages come back with completions; receive pages are
    flipped in by netback and the guest flips one of its pages back per
    packet. Pools stay balanced. *)

type t

(** [create ~hyp ~gnt ~dom ~costs ~xchan ~mac ~notify_backend ()] —
    [notify_backend] sends the event that wakes netback (typically an
    {!Xen.Event_channel.notify} from [dom]). [gnt] is the host's grant
    table (shared with netback so the flip ledger balances). [pool_pages]
    (default 1024) are allocated from the guest for the exchange pool. *)
val create :
  hyp:Xen.Hypervisor.t ->
  gnt:Xen.Grant_table.t ->
  dom:Xen.Domain.t ->
  costs:Os_costs.t ->
  xchan:Xchan.t ->
  mac:Ethernet.Mac_addr.t ->
  notify_backend:(unit -> unit) ->
  ?pool_pages:int ->
  ?materialize:bool ->
  unit ->
  t

val netdev : t -> Netdev.t

(** Bind as the handler of the guest's event channel from netback. Runs in
    guest kernel context. *)
val handle_event : t -> unit

(** Expose [netfront.tx_count] / [netfront.rx_count] /
    [netfront.pool_size] gauges labelled with the guest domain's name. *)
val register_metrics : t -> Sim.Metrics.t -> unit
