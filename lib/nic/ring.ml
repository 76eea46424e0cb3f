type t = { base : Memory.Addr.t; slots : int; desc_bytes : int }

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ~base ~slots ?(desc_bytes = Memory.Dma_desc.size_bytes) () =
  if (not (is_power_of_two slots)) || slots < 2 || slots > 32768 then
    invalid_arg "Ring.create: slots must be a power of two in [2, 32768]";
  if base < 0 then invalid_arg "Ring.create: negative base";
  if desc_bytes <= 0 then invalid_arg "Ring.create: non-positive stride";
  { base; slots; desc_bytes }

let base t = t.base
let slots t = t.slots
let size_bytes t = t.slots * t.desc_bytes
let slot_addr t idx = t.base + ((idx land (t.slots - 1)) * t.desc_bytes)

let available ~prod ~cons =
  let n = prod - cons in
  if n < 0 then invalid_arg "Ring.available: consumer ahead of producer";
  n

let space t ~prod ~cons = t.slots - available ~prod ~cons
let is_empty ~prod ~cons = available ~prod ~cons = 0
let is_full t ~prod ~cons = space t ~prod ~cons = 0
