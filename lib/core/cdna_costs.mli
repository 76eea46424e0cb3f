(** CPU costs of the CDNA hypervisor mechanisms, and the protection mode.

    The paper's Table 4 compares full software DMA protection against a
    protection-disabled upper bound (standing in for an ideal IOMMU); the
    discussion in section 5.3 motivates the explicit IOMMU mode, which we
    also implement for the ablation benchmarks. *)

type protection =
  | Full  (** Hypercall validation + page pinning + sequence numbers. *)
  | Disabled
      (** No validation: guests write descriptor rings directly (Table 4's
          "DMA Protection Disabled" row). *)
  | Iommu
      (** Per-context IOMMU checked by the DMA engine; the hypervisor only
          maintains IOMMU entries (section 5.3). *)

type t = {
  hypercall_fixed : Sim.Time.t;  (** Entry/exit of an enqueue hypercall. *)
  validate_per_desc : Sim.Time.t;
      (** Ownership check + pin + seqno stamp + ring write, per descriptor. *)
  unpin_per_desc : Sim.Time.t;  (** Lazy completion processing. *)
  iommu_per_desc : Sim.Time.t;  (** IOMMU entry install/remove. *)
  intr_decode_fixed : Sim.Time.t;  (** Bit-vector buffer drain per interrupt. *)
  map_context : Sim.Time.t;  (** Context assignment/revocation. *)
  pio_doorbell : Sim.Time.t;  (** Guest's mailbox write after enqueue. *)
  context_swap : Sim.Time.t;
      (** Paging one hardware context out and another in when guests
          oversubscribe the NIC's context slots: mailbox-partition copy,
          ring-register save/restore and firmware-scratch reload, charged
          to the hypervisor on the faulting guest's path. *)
}
