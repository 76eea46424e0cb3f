type t = {
  mem : Memory.Phys_mem.t;
  dma : Bus.Dma_engine.t;
  base : Memory.Addr.t;
  slots : int;
  dma_context : int;
  mutable prod : int; (* next slot the NIC writes; free-running *)
  mutable in_flight : int; (* posts issued, not yet landed *)
  mutable cons : int; (* next slot the hypervisor reads *)
  mutable posted : int;
  mutable drained : int;
}

let slot_bytes = 8

let create ~mem ~dma ~base ~slots ~dma_context =
  if slots < 2 || slots > 4096 || slots land (slots - 1) <> 0 then
    invalid_arg "Intr_vector.create: slots must be a power of two in [2, 4096]";
  {
    mem;
    dma;
    base;
    slots;
    dma_context;
    prod = 0;
    in_flight = 0;
    cons = 0;
    posted = 0;
    drained = 0;
  }

let slots t = t.slots
let base t = t.base
let dma_context t = t.dma_context
let space t = t.slots - (t.prod - t.cons)

let slot_addr t idx = t.base + (idx land (t.slots - 1)) * slot_bytes

let try_post t ~bits ~on_done =
  if space t <= 0 then false
  else begin
    let idx = t.prod in
    t.prod <- idx + 1;
    t.in_flight <- t.in_flight + 1;
    let data = Bytes.create slot_bytes in
    for i = 0 to slot_bytes - 1 do
      Bytes.set data i (Char.chr ((bits lsr (8 * i)) land 0xff))
    done;
    Bus.Dma_engine.write t.dma ~context:t.dma_context ~addr:(slot_addr t idx)
      ~data (fun _ ->
        t.in_flight <- t.in_flight - 1;
        t.posted <- t.posted + 1;
        on_done ());
    true
  end

let drain t =
  (* Only vectors whose DMA has landed are visible to the host. *)
  let landed = t.prod - t.in_flight in
  let rec take acc =
    if t.cons >= landed then List.rev acc
    else begin
      let v = Memory.Phys_mem.read_u64 t.mem ~addr:(slot_addr t t.cons) in
      t.cons <- t.cons + 1;
      t.drained <- t.drained + 1;
      take (v :: acc)
    end
  in
  take []

let posted t = t.posted
let drained t = t.drained
