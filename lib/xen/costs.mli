(** Hypervisor operation costs.

    CPU time charged for the VMM's own mechanisms. Values are calibrated in
    the experiments library; these defaults are in the range reported for
    Xen 3 on the paper-era Opteron. *)

type t = {
  isr : Sim.Time.t;  (** Physical-interrupt service routine entry/dispatch. *)
  virq_dispatch : Sim.Time.t;
      (** Marking an event channel pending and scheduling the target vcpu. *)
  event_notify : Sim.Time.t;  (** Event-channel notify hypercall. *)
  grant_map : Sim.Time.t;
      (** Grant mapping of a transmit page into the driver domain. *)
  grant_transfer : Sim.Time.t;
      (** Full page transfer (receive path): ownership change plus the
          TLB maintenance that made Xen's receive flipping expensive. *)
  domain_create : Sim.Time.t;
}
