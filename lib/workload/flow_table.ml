(* Flat, allocation-free flow state following the Iommu packed-int-key
   playbook: every per-flow field lives in a preallocated int array (or
   Bytes) indexed by a small slot id, flows are addressed by a packed
   int key through an open-addressing linear-probe hash (load factor
   <= 0.5), and deletions use backward-shift compaction so the probe
   chains never accumulate tombstones. Nothing on the insert / complete
   / expire path allocates, so a million concurrent flows cost a fixed
   ~80 MB of flat arrays and zero GC pressure. *)

let empty_key = -1

(* States, stored one byte per slot: '\000' free, '\001' active,
   '\002' embryonic. *)
let st_free = '\000'
let st_embryonic = '\002'

type t = {
  capacity : int;
  mask : int; (* hash size - 1; hash size = pow2 >= 2*capacity *)
  hkey : int array; (* hash index -> packed key, or [empty_key] *)
  hslot : int array; (* hash index -> flow slot *)
  skey : int array; (* slot -> packed key *)
  total_pkts : int array;
  remaining : int array;
  arrived : int array; (* slot -> admission time, ns *)
  state : Bytes.t;
  free : int array; (* free-slot stack *)
  mutable free_top : int;
  mutable live : int;
  mutable peak_live : int;
  mutable inserted : int;
  mutable completed : int;
  mutable expired : int;
  mutable rejected_full : int;
  mutable rejected_dup : int;
}

let rec ceil_pow2 n acc = if acc >= n then acc else ceil_pow2 n (acc * 2)

let create ~capacity =
  if capacity <= 0 then invalid_arg "Flow_table.create: capacity must be > 0";
  let hsize = ceil_pow2 (2 * capacity) 16 in
  let free = Array.init capacity (fun i -> capacity - 1 - i) in
  {
    capacity;
    mask = hsize - 1;
    hkey = Array.make hsize empty_key;
    hslot = Array.make hsize 0;
    skey = Array.make capacity 0;
    total_pkts = Array.make capacity 0;
    remaining = Array.make capacity 0;
    arrived = Array.make capacity 0;
    state = Bytes.make capacity st_free;
    free;
    free_top = capacity;
    live = 0;
    peak_live = 0;
    inserted = 0;
    completed = 0;
    expired = 0;
    rejected_full = 0;
    rejected_dup = 0;
  }

let max_endpoint = 1 lsl 31

let pack ~src ~dst =
  if src < 0 || src >= max_endpoint || dst < 0 || dst >= max_endpoint then
    invalid_arg "Flow_table.pack: endpoint out of range";
  (src lsl 31) lor dst

let src_of_key k = k lsr 31
let dst_of_key k = k land (max_endpoint - 1)

(* SplitMix-style finalizer over the native int; wraparound multiply is
   deterministic. The constant fits in 62 bits. *)
let[@cdna.hot] mix k =
  let h = (k lxor (k lsr 31)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let[@cdna.hot] find t ~key =
  let mask = t.mask in
  let i = ref (mix key land mask) in
  let r = ref (-3) in
  while !r = -3 do
    let k = Array.unsafe_get t.hkey !i in
    if k = key then r := Array.unsafe_get t.hslot !i
    else if k = empty_key then r := -1
    else i := (!i + 1) land mask
  done;
  !r

let[@cdna.hot] insert t ~key ~pkts ~now =
  if key < 0 || pkts < 0 then invalid_arg "Flow_table.insert";
  if t.live >= t.capacity then begin
    t.rejected_full <- t.rejected_full + 1;
    -1
  end
  else begin
    let mask = t.mask in
    let i = ref (mix key land mask) in
    let slot = ref (-3) in
    while !slot = -3 do
      let k = Array.unsafe_get t.hkey !i in
      if k = key then begin
        t.rejected_dup <- t.rejected_dup + 1;
        slot := -2
      end
      else if k = empty_key then begin
        t.free_top <- t.free_top - 1;
        let s = Array.unsafe_get t.free t.free_top in
        Array.unsafe_set t.hkey !i key;
        Array.unsafe_set t.hslot !i s;
        Array.unsafe_set t.skey s key;
        Array.unsafe_set t.total_pkts s pkts;
        Array.unsafe_set t.remaining s pkts;
        Array.unsafe_set t.arrived s now;
        Bytes.unsafe_set t.state s
          (Char.unsafe_chr (if pkts = 0 then 2 else 1));
        t.live <- t.live + 1;
        if t.live > t.peak_live then t.peak_live <- t.live;
        t.inserted <- t.inserted + 1;
        slot := s
      end
      else i := (!i + 1) land mask
    done;
    !slot
  end

(* Remove [key]'s hash entry and backward-shift the rest of its probe
   cluster: an entry at [j] may fill the hole at [i] iff its home bucket
   is not cyclically inside (i, j] (moving it would otherwise break its
   own probe chain). *)
let[@cdna.hot] unlink t key =
  let mask = t.mask in
  let i = ref (mix key land mask) in
  while Array.unsafe_get t.hkey !i <> key do
    i := (!i + 1) land mask
  done;
  let j = ref !i in
  let scanning = ref true in
  while !scanning do
    j := (!j + 1) land mask;
    let k = Array.unsafe_get t.hkey !j in
    if k = empty_key then scanning := false
    else begin
      let h = mix k land mask in
      let in_gap =
        if !i <= !j then h > !i && h <= !j else h > !i || h <= !j
      in
      if not in_gap then begin
        Array.unsafe_set t.hkey !i k;
        Array.unsafe_set t.hslot !i (Array.unsafe_get t.hslot !j);
        i := !j
      end
    end
  done;
  Array.unsafe_set t.hkey !i empty_key

let[@cdna.hot] release t slot =
  unlink t (Array.unsafe_get t.skey slot);
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
let rejected_dup t = t.rejected_dup
let key_of_slot t slot = t.skey.(slot)
let[@cdna.hot] remaining t ~slot = t.remaining.(slot)
let[@cdna.hot] total_pkts t ~slot = t.total_pkts.(slot)
let[@cdna.hot] arrived_at t ~slot = t.arrived.(slot)
let is_embryonic t ~slot = Bytes.get t.state slot = st_embryonic

let iter_live t f =
  for slot = 0 to t.capacity - 1 do
    if Bytes.get t.state slot <> st_free then f slot
  done
