(* P1 (in the nic layer, set below): ownership mutation outside the
   hypervisor layers. *)
let steal mem pfn dom =
  ignore (Memory.Phys_mem.transfer mem pfn ~to_:dom);
  Memory.Phys_mem.get_ref mem pfn

let leak iommu ~context pfn = Memory.Iommu.grant iommu ~context pfn

[@@@cdna.layer "nic"]
