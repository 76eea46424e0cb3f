type kind = Driver | Guest | Native

type t = {
  id : Host.Category.domain_id;
  name : string;
  kind : kind;
  entity : Host.Cpu.entity;
  mem : Memory.Phys_mem.t;
  mutable virqs : int;
}

let make ~id ~name ~kind ~entity ~mem =
  { id; name; kind; entity; mem; virqs = 0 }

let id t = t.id
let name t = t.name
let kind t = t.kind
let entity t = t.entity
let kernel t = Host.Category.Kernel t.id
let user t = Host.Category.User t.id
let pages t = Memory.Phys_mem.owned_pages t.mem t.id
let page_count t = List.length (pages t)
let virq_count t = t.virqs
let reset_virq_count t = t.virqs <- 0
let incr_virq t = t.virqs <- t.virqs + 1
