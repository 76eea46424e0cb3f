type error = [ `Not_owner | `Pinned ]
type t = { hyp : Hypervisor.t; mutable count : int }

let create hyp = { hyp; count = 0 }

let flip t ~src ~dst pfn =
  let mem = Hypervisor.mem t.hyp in
  if not (Memory.Phys_mem.owned_by mem pfn (Domain.id src)) then Error `Not_owner
  else
    match Memory.Phys_mem.transfer mem pfn ~to_:(Domain.id dst) with
    | Error `Pinned -> Error `Pinned
    | Ok () ->
        t.count <- t.count + 1;
        Ok ()

let flips t = t.count
