(* A singly linked list of fixed chunks. Values are pushed at
   [tail.slots.(tail_pos)] and popped from [head.slots.(head_pos)]; a
   chunk whose last slot is popped becomes the spare, and the next chunk
   the queue needs is the spare if there is one. [nil] is the
   per-instance empty chunk that ends the list and marks "no spare";
   its zero slots make the first push grow. *)

type 'a chunk = { slots : 'a array; mutable next : 'a chunk }

type 'a t = {
  dummy : 'a;
  nil : 'a chunk;
  mutable head : 'a chunk;
  mutable head_pos : int;
  mutable tail : 'a chunk;
  mutable tail_pos : int;
  mutable spare : 'a chunk;
  mutable length : int;
}

(* 64 slots plus the header stay well under [Max_young_wosize] (256
   words), so a chunk is born on the minor heap. *)
let chunk_size = 64

let create ~dummy =
  let rec nil = { slots = [||]; next = nil } in
  {
    dummy;
    nil;
    head = nil;
    head_pos = 0;
    tail = nil;
    tail_pos = 0;
    spare = nil;
    length = 0;
  }

let[@cdna.hot] length t = t.length
let[@cdna.hot] is_empty t = t.length = 0

(* Called when the tail chunk is full: link the spare, or a new chunk,
   after it. An empty queue's tail is [nil] or a chunk reset to
   position 0, so a full tail always holds values and the new chunk is
   linked behind them. *)
let grow t =
  let c =
    if t.spare != t.nil then begin
      let c = t.spare in
      t.spare <- t.nil;
      c
    end
    else { slots = Array.make chunk_size t.dummy; next = t.nil }
  in
  if t.tail == t.nil then t.head <- c else t.tail.next <- c;
  t.tail <- c;
  t.tail_pos <- 0

let[@cdna.hot] push t x =
  if t.tail_pos = Array.length t.tail.slots then
    (grow t
    [@cdna.alloc_ok
      "chunk growth: a queue allocates a chunk only when it holds more \
       values than its chunks and the spare can take"]);
  Array.unsafe_set t.tail.slots t.tail_pos x;
  t.tail_pos <- t.tail_pos + 1;
  t.length <- t.length + 1

let[@cdna.hot] peek t =
  if t.length = 0 then invalid_arg "Fifo.peek: empty queue";
  Array.unsafe_get t.head.slots t.head_pos

let[@cdna.hot] pop t =
  if t.length = 0 then invalid_arg "Fifo.pop: empty queue";
  let c = t.head and i = t.head_pos in
  let x = Array.unsafe_get c.slots i in
  Array.unsafe_set c.slots i t.dummy;
  t.length <- t.length - 1;
  if t.length = 0 then begin
    (* Empty: [head == tail]; refill the same chunk from its start. *)
    t.head_pos <- 0;
    t.tail_pos <- 0
  end
  else if i + 1 = Array.length c.slots then begin
    t.head <- c.next;
    t.head_pos <- 0;
    c.next <- t.nil;
    t.spare <- c
  end
  else t.head_pos <- i + 1;
  x

let transfer src dst =
  while src.length > 0 do
    push dst (pop src)
  done
