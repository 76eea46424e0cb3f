(* Stand-ins for the simulator modules the lint fixtures call, so they
   compile without linking it. Fixtures are compiled with
   [-open Lint_env]: [Memory.Phys_mem.transfer] in a fixture resolves
   here and canonicalizes to [Phys_mem.transfer], as the real
   [Memory.Phys_mem] does. Bodies are irrelevant. *)

module Memory = struct
  module Phys_mem = struct
    let transfer _mem _pfn ~to_ = ignore to_
    let get_ref _mem _pfn = ()
    let write _mem ~addr _data = ignore addr
    let read_u32 _mem ~addr = addr
  end

  module Iommu = struct
    let grant _iommu ~context _pfn = ignore context
  end
end
