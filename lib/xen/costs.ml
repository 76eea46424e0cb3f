type t = {
  isr : Sim.Time.t;
  virq_dispatch : Sim.Time.t;
  event_notify : Sim.Time.t;
  grant_map : Sim.Time.t;
  grant_transfer : Sim.Time.t;
  domain_create : Sim.Time.t;
}

