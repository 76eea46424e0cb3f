type t = {
  stack_tx_per_pkt : Sim.Time.t;
  stack_rx_per_pkt : Sim.Time.t;
  stack_wakeup_fixed : Sim.Time.t;
  driver_tx_per_pkt : Sim.Time.t;
  driver_rx_per_pkt : Sim.Time.t;
  driver_wakeup_fixed : Sim.Time.t;
  app_per_pkt : Sim.Time.t;
  app_wakeup : Sim.Time.t;
  rx_poll_budget : int;
  tx_batch_limit : int;
}

