(* P1 does not apply in the xen layer (set below): the same calls as
   prot_ownership_nic.ml are the hypervisor's own. *)
let steal mem pfn dom =
  ignore (Memory.Phys_mem.transfer mem pfn ~to_:dom);
  Memory.Phys_mem.get_ref mem pfn

let leak iommu ~context pfn = Memory.Iommu.grant iommu ~context pfn

[@@@cdna.layer "xen"]
