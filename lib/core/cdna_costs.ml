type protection = Full | Disabled | Iommu

type t = {
  hypercall_fixed : Sim.Time.t;
  validate_per_desc : Sim.Time.t;
  unpin_per_desc : Sim.Time.t;
  iommu_per_desc : Sim.Time.t;
  intr_decode_fixed : Sim.Time.t;
  map_context : Sim.Time.t;
  pio_doorbell : Sim.Time.t;
  context_swap : Sim.Time.t;
}

