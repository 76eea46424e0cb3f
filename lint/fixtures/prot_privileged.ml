(* Module-level privilege declaration exempts a file from P rules (and is
   counted as a suppression). *)
[@@@cdna.privileged "fixture: stands in for the hypervisor layer"]

let pin mem pfn = Memory.Phys_mem.get_ref mem pfn

[@@@cdna.layer "nic"]
