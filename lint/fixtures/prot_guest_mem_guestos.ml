(* P2 (in the guestos layer, set below): guest memory reached directly
   instead of through Bus.Dma_engine. *)
let poke mem ~addr data = Memory.Phys_mem.write mem ~addr data
let peek mem ~addr = Memory.Phys_mem.read_u32 mem ~addr

[@@@cdna.layer "guestos"]
