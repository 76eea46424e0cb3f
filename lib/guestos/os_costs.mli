(** Guest-OS CPU cost parameters.

    Per-packet and per-wakeup kernel/user costs of the simulated network
    stack, drivers and benchmark application. The experiments library
    calibrates these so single-guest profiles land on the paper's Tables
    2-3 (see DESIGN.md section "Cost model calibration"). *)

type t = {
  stack_tx_per_pkt : Sim.Time.t;  (** Kernel stack transmit path, per packet. *)
  stack_rx_per_pkt : Sim.Time.t;
  stack_wakeup_fixed : Sim.Time.t;  (** Softirq batch entry. *)
  driver_tx_per_pkt : Sim.Time.t;  (** Descriptor build, buffer handling. *)
  driver_rx_per_pkt : Sim.Time.t;  (** Completion handling, buffer repost. *)
  driver_wakeup_fixed : Sim.Time.t;  (** Interrupt/poll entry, per batch. *)
  app_per_pkt : Sim.Time.t;  (** User-space benchmark work per packet. *)
  app_wakeup : Sim.Time.t;
  rx_poll_budget : int;  (** NAPI-style per-poll packet budget. *)
  tx_batch_limit : int;  (** Max packets accepted per driver send call. *)
}
