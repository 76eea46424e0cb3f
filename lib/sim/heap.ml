(* Unboxed 4-ary min-heap keyed by int.

   Layout is chosen for the sift-down cache behavior that dominates the
   event-queue hot path:

   - [nodes] interleaves (key, slot) pairs at stride 2, so the four
     children of a node occupy 8 contiguous words — one or two cache
     lines per level instead of one line per array per level. A 4-ary
     tree also halves the depth (and therefore the chain of dependent
     cache misses) relative to a binary heap.
   - Values never move: they live in a slot arena ([vals]) addressed by
     the slot stored in the node, so sifting shuffles only plain ints
     and performs no write barriers.
   - FIFO tie-breaking seqs are also per-slot ([seqs]); sift compares
     consult them only when two keys are actually equal, which keeps
     the common sift step at one key load per child.

   Vacated [vals] slots are overwritten with [dummy] so a popped
   payload is not pinned by the heap until the slot is reused. *)

type 'a t = {
  dummy : 'a;
  limit : int; (* hard cap on concurrently pending entries *)
  mutable nodes : int array; (* stride 2: key, slot *)
  mutable vals : 'a array; (* arena, indexed by slot *)
  mutable seqs : int array; (* arena: FIFO seq of the pending entry *)
  mutable free : int array; (* stack of reusable slots *)
  mutable free_top : int;
  mutable arena_used : int;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(max_entries = 1 lsl 24) ~dummy () =
  if max_entries <= 0 then invalid_arg "Heap.create: non-positive max_entries";
  {
    dummy;
    limit = max_entries;
    nodes = [||];
    vals = [||];
    seqs = [||];
    free = [||];
    free_top = 0;
    arena_used = 0;
    size = 0;
    next_seq = 0;
  }

let[@cdna.hot] length h = h.size
let[@cdna.hot] is_empty h = h.size = 0

let grow h =
  let cap = Array.length h.vals in
  if cap >= h.limit then invalid_arg "Heap: too many pending entries";
  let nc = Stdlib.min h.limit (if cap = 0 then 16 else cap * 2) in
  let nodes = Array.make (2 * nc) 0 in
  let vals = Array.make nc h.dummy in
  let seqs = Array.make nc 0 in
  Array.blit h.nodes 0 nodes 0 (2 * h.size);
  Array.blit h.vals 0 vals 0 h.arena_used;
  Array.blit h.seqs 0 seqs 0 h.arena_used;
  h.nodes <- nodes;
  h.vals <- vals;
  h.seqs <- seqs

(* The free stack is grown lazily on first pop (and never shrinks), so a
   push-only phase pays no allocation or zero-init for it at all. *)
let ensure_free h =
  if Array.length h.free <= h.free_top then begin
    let nc = max 16 (Array.length h.vals) in
    let free = Array.make nc 0 in
    Array.blit h.free 0 free 0 h.free_top;
    h.free <- free
  end

let[@cdna.hot] push h ~key v =
  if h.size = Array.length h.vals then
    (grow h [@cdna.alloc_ok "amortized capacity doubling, not steady state"]);
  let slot =
    if h.free_top > 0 then begin
      let t = h.free_top - 1 in
      h.free_top <- t;
      Array.unsafe_get h.free t
    end
    else begin
      let s = h.arena_used in
      h.arena_used <- s + 1;
      s
    end
  in
  Array.unsafe_set h.vals slot v;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  Array.unsafe_set h.seqs slot seq;
  let nodes = h.nodes in
  let i = ref h.size in
  h.size <- h.size + 1;
  (* Sift up. Every existing entry has a smaller seq than the new one,
     so an equal-key parent stays the parent: only [pk > key] moves. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pk = Array.unsafe_get nodes (2 * p) in
    if pk > key then begin
      Array.unsafe_set nodes (2 * !i) pk;
      Array.unsafe_set nodes ((2 * !i) + 1)
        (Array.unsafe_get nodes ((2 * p) + 1));
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set nodes (2 * !i) key;
  Array.unsafe_set nodes ((2 * !i) + 1) slot

(* The [_exn] accessors return unboxed results and raise only off the
   steady-state path, so the engine's dispatch loop, guarded by
   [is_empty], never allocates an option per event. *)

let[@cdna.hot] min_key_exn h =
  if h.size = 0 then invalid_arg "Heap.min_key_exn: empty heap"
  else Array.unsafe_get h.nodes 0

let[@cdna.hot] pop_exn h =
  if h.size = 0 then invalid_arg "Heap.pop_exn: empty heap"
  else begin
    let nodes = h.nodes in
    let seqs = h.seqs in
    let slot0 = Array.unsafe_get nodes 1 in
    let v = Array.unsafe_get h.vals slot0 in
    (* Release the slot so the heap does not pin [v]. *)
    Array.unsafe_set h.vals slot0 h.dummy;
    (ensure_free h
    [@cdna.alloc_ok "lazy one-time free-stack growth, not steady state"]);
    Array.unsafe_set h.free h.free_top slot0;
    h.free_top <- h.free_top + 1;
    let n = h.size - 1 in
    h.size <- n;
    if n > 0 then begin
      (* Hole-based sift-down of the last entry: move min children up
         into the hole, then write the entry once at its final spot. *)
      let lk = Array.unsafe_get nodes (2 * n)
      and lv = Array.unsafe_get nodes ((2 * n) + 1) in
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let c0 = (4 * !i) + 1 in
        if c0 >= n then continue := false
        else begin
          let nc = n - c0 in
          let c = ref c0 in
          let ck = ref (Array.unsafe_get nodes (2 * c0)) in
          let limit = if nc > 4 then 4 else nc in
          for d = 1 to limit - 1 do
            let j = c0 + d in
            let jk = Array.unsafe_get nodes (2 * j) in
            if jk < !ck then begin
              c := j;
              ck := jk
            end
            else if
              jk = !ck
              && Array.unsafe_get seqs (Array.unsafe_get nodes ((2 * j) + 1))
                 < Array.unsafe_get seqs
                     (Array.unsafe_get nodes ((2 * !c) + 1))
            then c := j
          done;
          if
            !ck < lk
            || !ck = lk
               && Array.unsafe_get seqs
                    (Array.unsafe_get nodes ((2 * !c) + 1))
                  < Array.unsafe_get seqs lv
          then begin
            Array.unsafe_set nodes (2 * !i) !ck;
            Array.unsafe_set nodes ((2 * !i) + 1)
              (Array.unsafe_get nodes ((2 * !c) + 1));
            i := !c
          end
          else continue := false
        end
      done;
      Array.unsafe_set nodes (2 * !i) lk;
      Array.unsafe_set nodes ((2 * !i) + 1) lv
    end;
    v
  end
