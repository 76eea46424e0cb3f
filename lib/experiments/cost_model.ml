let us = Sim.Time.of_us_f

type t = {
  guest_os : Guestos.Os_costs.t;
  driver_os : Guestos.Os_costs.t;
  netback : Guestos.Netback.costs;
  xen : Xen.Costs.t;
  cdna : Cdna.Cdna_costs.t;
  evtchn_isr : Sim.Time.t;
  nic_evtchn_isr : Sim.Time.t;
  native_isr : Sim.Time.t;
  intr_min_gap : Sim.Time.t;
  cpu_migration : Sim.Time.t;
      (* IPI delivery + cold-cache refill when a vcpu wakes on another CPU *)
}

(* Guest OS costs on the paravirtualized (netfront) path. *)
let xen_guest_os =
  {
    Guestos.Os_costs.stack_tx_per_pkt = us 1.5;
    stack_rx_per_pkt = us 1.62;
    stack_wakeup_fixed = us 0.8;
    driver_tx_per_pkt = us 1.05;
    driver_rx_per_pkt = us 1.45;
    driver_wakeup_fixed = us 1.5;
    app_per_pkt = us 0.015;
    app_wakeup = us 0.25;
    rx_poll_budget = 64;
    tx_batch_limit = 64;
  }

(* CDNA guests run a native-style driver against their own context; the
   per-packet driver work is lighter than netfront's (no shared-ring
   bookkeeping, no page exchange). *)
let cdna_guest_os =
  {
    xen_guest_os with
    Guestos.Os_costs.driver_tx_per_pkt = us 0.55;
    driver_rx_per_pkt = us 0.72;
  }

(* Bare-metal Linux: TSO and no virtualization layers. *)
let native_guest_os =
  {
    xen_guest_os with
    Guestos.Os_costs.stack_tx_per_pkt = us 1.2;
    stack_rx_per_pkt = us 1.9;
    driver_tx_per_pkt = us 0.55;
    driver_rx_per_pkt = us 0.9;
  }

(* The driver domain's unmodified native driver. *)
let driver_domain_os =
  {
    xen_guest_os with
    Guestos.Os_costs.driver_tx_per_pkt = us 0.7;
    driver_rx_per_pkt = us 1.4;
    driver_wakeup_fixed = us 1.5;
  }

let netback_intel =
  {
    Guestos.Netback.per_pkt_tx = us 1.35;
    per_pkt_rx = us 2.0;
    bridge_per_pkt = us 0.55;
    wakeup_fixed = us 2.0;
    per_ring_visit = us 0.7;
    tx_budget = 96;
    rx_budget = 96;
    rx_overflow_cap = 512;
  }

(* Without TSO the guest stack emits MTU-sized packets all the way, which
   showed up in the paper as more driver-domain time per packet. *)
let netback_ricenic =
  {
    netback_intel with
    Guestos.Netback.per_pkt_tx = us 1.6;
    per_pkt_rx = us 2.3;
  }

let xen_costs_intel =
  {
    Xen.Costs.isr = us 1.3;
    virq_dispatch = us 0.75;
    event_notify = us 0.9;
    grant_map = us 0.55;
    grant_transfer = us 1.35;
    domain_create = us 100.;
  }

let xen_costs_ricenic =
  {
    xen_costs_intel with
    Xen.Costs.grant_map = us 0.28;
    grant_transfer = us 1.5;
  }

let cdna_costs =
  {
    Cdna.Cdna_costs.hypercall_fixed = us 0.75;
    validate_per_desc = us 0.3;
    unpin_per_desc = us 0.05;
    iommu_per_desc = us 0.1;
    intr_decode_fixed = us 0.45;
    map_context = us 20.;
    pio_doorbell = us 0.12;
    context_swap = us 45.;
  }

let base ~nic_kind =
  let netback, xen =
    match (nic_kind : Config.nic_kind) with
    | Config.Intel -> (netback_intel, xen_costs_intel)
    | Config.Ricenic -> (netback_ricenic, xen_costs_ricenic)
  in
  {
    guest_os = xen_guest_os;
    driver_os = driver_domain_os;
    netback;
    xen;
    cdna = cdna_costs;
    evtchn_isr = us 0.7;
    nic_evtchn_isr = us 0.5;
    native_isr = us 1.5;
    intr_min_gap =
      (match nic_kind with
      | Config.Intel -> us 240.
      | Config.Ricenic -> us 140.);
    cpu_migration = us 9.;
  }

(* The CDNA interrupt path is a short bit-vector decode, without Xen's
   full upcall machinery. *)
let xen_costs_cdna =
  { xen_costs_ricenic with Xen.Costs.isr = us 0.8; virq_dispatch = us 0.55 }

let for_config system nic_kind =
  let b = base ~nic_kind in
  match (system : Config.system) with
  | Config.Native -> { b with guest_os = native_guest_os }
  | Config.Xen_sw -> b
  | Config.Cdna_sys ->
      { b with guest_os = cdna_guest_os; xen = xen_costs_cdna }
