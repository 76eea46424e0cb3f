(* Flat, allocation-free flow state: every per-flow field lives in a
   preallocated int array (or Bytes) indexed by a small slot id, and free
   slots sit on a LIFO stack. Callers hold slot ids, so there is no key
   index to keep: admission pops the stack, completion pushes the slot
   back. Nothing on the insert / complete / expire path allocates, so a
   flow costs a fixed 33 bytes of flat arrays and zero GC pressure. *)

(* States, stored one byte per slot: '\000' free, '\001' active,
   '\002' embryonic. *)
let st_free = '\000'
let st_embryonic = '\002'

type t = {
  capacity : int;
  total_pkts : int array;
  remaining : int array;
  arrived : int array; (* slot -> admission time, ns *)
  state : Bytes.t;
  free : int array; (* free-slot stack *)
  mutable free_top : int;
  mutable live : int;
  mutable peak_live : int;
  mutable completed : int;
  mutable expired : int;
  mutable rejected_full : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Flow_table.create: capacity must be > 0";
  let free = Array.init capacity (fun i -> capacity - 1 - i) in
  {
    capacity;
    total_pkts = Array.make capacity 0;
    remaining = Array.make capacity 0;
    arrived = Array.make capacity 0;
    state = Bytes.make capacity st_free;
    free;
    free_top = capacity;
    live = 0;
    peak_live = 0;
    completed = 0;
    expired = 0;
    rejected_full = 0;
  }

let[@cdna.hot] insert t ~pkts ~now =
  if pkts < 0 then invalid_arg "Flow_table.insert";
  if t.live >= t.capacity then begin
    t.rejected_full <- t.rejected_full + 1;
    -1
  end
  else begin
    t.free_top <- t.free_top - 1;
    let s = Array.unsafe_get t.free t.free_top in
    Array.unsafe_set t.total_pkts s pkts;
    Array.unsafe_set t.remaining s pkts;
    Array.unsafe_set t.arrived s now;
    Bytes.unsafe_set t.state s (Char.unsafe_chr (if pkts = 0 then 2 else 1));
    t.live <- t.live + 1;
    if t.live > t.peak_live then t.peak_live <- t.live;
    s
  end

let[@cdna.hot] release t slot =
  Bytes.unsafe_set t.state slot '\000';
  Array.unsafe_set t.free t.free_top slot;
  t.free_top <- t.free_top + 1;
  t.live <- t.live - 1

let[@cdna.hot] complete t ~slot ~now =
  t.completed <- t.completed + 1;
  let lat = now - Array.unsafe_get t.arrived slot in
  release t slot;
  lat

let[@cdna.hot] expire t ~slot =
  t.expired <- t.expired + 1;
  release t slot

let[@cdna.hot] dec_remaining t ~slot =
  let r = Array.unsafe_get t.remaining slot - 1 in
  Array.unsafe_set t.remaining slot r;
  r

let[@cdna.hot] live t = t.live
let peak_live t = t.peak_live
let completed t = t.completed
let expired t = t.expired
let rejected_full t = t.rejected_full
let[@cdna.hot] remaining t ~slot = t.remaining.(slot)
let[@cdna.hot] total_pkts t ~slot = t.total_pkts.(slot)
let[@cdna.hot] arrived_at t ~slot = t.arrived.(slot)
let is_embryonic t ~slot = Bytes.get t.state slot = st_embryonic

let iter_live t f =
  for slot = 0 to t.capacity - 1 do
    if Bytes.get t.state slot <> st_free then f slot
  done
