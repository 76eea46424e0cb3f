(* P2 does not apply outside nic/guestos: the same accesses as
   prot_guest_mem_guestos.ml, in the experiments layer (set below). *)
let poke mem ~addr data = Memory.Phys_mem.write mem ~addr data
let peek mem ~addr = Memory.Phys_mem.read_u32 mem ~addr

[@@@cdna.layer "experiments"]
