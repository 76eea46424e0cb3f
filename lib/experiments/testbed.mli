(** Full-machine assembly.

    Builds one complete simulated testbed from a {!Config.t}: the CPU and
    memory, the hypervisor (for virtualized systems), the NICs on their
    links with an ideal {!Peer} per link, the driver stacks appropriate to
    the chosen system, and the benchmark workload:

    - {b Native}: one bare-metal OS; one native driver + stack per NIC;
      interrupts go straight to the OS.
    - {b Xen_sw}: driver domain owning the physical NICs (native drivers,
      netback, software bridge) and N paravirtualized guests (netfront
      over shared channels, event-channel notifications, page flipping).
    - {b Cdna_sys}: N guests, each with its own hardware context on every
      CDNA NIC (its own MAC, rings, mailbox mapping), the CDNA hypervisor
      extension providing DMA protection and bit-vector interrupt
      delivery. The driver domain exists but does no datapath work.

    Every guest talks to every NIC's peer through two window-limited
    connections. *)

type t = {
  engine : Sim.Engine.t;
  profile : Host.Profile.t;
  xen : Xen.Hypervisor.t;
  grant_table : Xen.Grant_table.t;
      (** The host's page-flip ledger; one per testbed, so multi-host
          (multi-LP) runs share no grant state. *)
  metrics : Sim.Metrics.t;
      (** Registry with every component's gauges pre-registered: scheduler,
          DMA bus, hypervisor, NICs (per-context), netback/netfront or
          CDNA contexts as the system dictates. Native adds
          [native.phys_irqs], the interrupts its NIC lines delivered. *)
  driver_dom : Xen.Domain.t option;
  guest_doms : Xen.Domain.t list;
  conns_tx : Workload.Connection.t list;  (** Guest-transmit connections. *)
  conns_rx : Workload.Connection.t list;  (** Guest-receive connections. *)
  peers : Peer.t list;
  cdna_hyp : Cdna.Hyp.t option;
  cdna_handles : Cdna.Hyp.ctx_handle list;
  netback : Guestos.Netback.t option;
  start : unit -> unit;  (** Arm the workload (peers + benchmark apps). *)
}

val build : Config.t -> t
