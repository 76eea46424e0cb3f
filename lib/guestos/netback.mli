(** Back-end network driver and bridge thread (driver domain).

    The driver-domain half of Xen's software I/O virtualization (paper
    section 2.1): a single kernel thread that, when scheduled,

    - polls every guest's shared channel for transmit requests, performs
      the page exchange (two grant flips per packet), routes each packet
      through the software {!Bridge}, and hands it to the native driver of
      the physical NIC (or to another guest's channel, for inter-guest
      traffic);
    - takes packets received by the physical NICs, routes them through the
      bridge, flips a pool page carrying the payload into the target guest
      and pushes it on that guest's channel;
    - batches one event-channel notification per guest per run.

    The per-ring visit cost makes every run more expensive as guests are
    added even when rings are near-empty — one of the scaling overheads
    behind the paper's Figure 3/4 decline. *)

type costs = {
  per_pkt_tx : Sim.Time.t;
  per_pkt_rx : Sim.Time.t;
  bridge_per_pkt : Sim.Time.t;
  wakeup_fixed : Sim.Time.t;
  per_ring_visit : Sim.Time.t;
  tx_budget : int;  (** Max transmit packets drained per guest per run. *)
  rx_budget : int;  (** Max receive packets processed per run. *)
  rx_overflow_cap : int;  (** Held packets per guest before dropping. *)
}

type t
type iface

val create :
  hyp:Xen.Hypervisor.t ->
  gnt:Xen.Grant_table.t ->
  dom:Xen.Domain.t ->
  costs:costs ->
  ?pool_pages:int ->
  ?materialize:bool ->
  unit ->
  t

(** [add_interface t ~guest_dom ~guest_mac ~xchan ~notify_frontend]
    registers a guest's back-end interface and bridge port. *)
val add_interface :
  t ->
  guest_dom:Xen.Domain.t ->
  guest_mac:Ethernet.Mac_addr.t ->
  xchan:Xchan.t ->
  notify_frontend:(unit -> unit) ->
  iface

(** [add_physical t netdev ~remote_macs] attaches a physical NIC (its
    native driver's device) as a bridge port; received frames feed the
    netback thread. [remote_macs] seeds the forwarding table with stations
    known to be behind this port (what ARP traffic would teach a real
    bridge within milliseconds). *)
val add_physical :
  t -> Netdev.t -> remote_macs:Ethernet.Mac_addr.t list -> unit

(** Wake the netback thread (bind to the guests' event channels). *)
val schedule : t -> unit

(** Expose the forwarding counters ([netback.tx_forwarded],
    [netback.rx_delivered], [netback.rx_dropped], [netback.runs],
    [netback.pool_size]) as gauges. *)
val register_metrics : t -> Sim.Metrics.t -> unit
