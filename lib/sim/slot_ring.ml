(* Capacity is always a power of two, so the ring index is a mask. *)
type 'a t = {
  make : unit -> 'a;
  mutable slots : 'a array;
  mutable head : int;
  mutable length : int;
}

let initial_capacity = 16

let create make =
  { make; slots = Array.init initial_capacity (fun _ -> make ()); head = 0; length = 0 }

(* Called when full: unwrap the slots, in FIFO order, to the front of a
   ring twice the size and build only the new half. *)
let grow t =
  let cap = Array.length t.slots in
  let slots =
    Array.init (2 * cap) (fun i ->
        if i < cap then t.slots.((t.head + i) land (cap - 1)) else t.make ())
  in
  t.slots <- slots;
  t.head <- 0

let[@cdna.hot] push t =
  if t.length = Array.length t.slots then
    (grow t
    [@cdna.alloc_ok
      "amortized ring growth: capacity doubles, so a ring that stays at \
       depth d stops allocating once it holds d slots"]);
  let s =
    Array.unsafe_get t.slots ((t.head + t.length) land (Array.length t.slots - 1))
  in
  t.length <- t.length + 1;
  s

let[@cdna.hot] pop t =
  if t.length = 0 then invalid_arg "Slot_ring.pop: empty ring";
  let s = Array.unsafe_get t.slots t.head in
  t.head <- (t.head + 1) land (Array.length t.slots - 1);
  t.length <- t.length - 1;
  s
