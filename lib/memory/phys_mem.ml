(* Sparse physical memory.

   Frames live in 256-page chunks: [chunks.(pfn / 256)] holds one slot
   per page, [Bytes.empty] until the page is first touched. A chunk none
   of whose pages has been touched is this memory's shared [no_chunk]
   (all [Bytes.empty], never written; one per memory, so testbeds on
   different domains share no array), so a machine costs one chunk
   pointer per 256 pages, one metadata word per page ({!Page.t}) and
   4 KB per page actually touched. The first touch allocates a zeroed
   frame (and its chunk, if needed); reclaiming a page drops its frame
   again, so a reallocated page zero-fills on next access and never
   leaks the previous owner's bytes.

   The free list is a stack of reclaimed pages over a cursor of
   never-allocated ones. [alloc] takes reclaimed pages first, most
   recent first, then fresh pages from the cursor up: the order of the
   old single stack that started with every pfn on it, lowest on top.

   The datapath accessors ([read_into], [write_sub], the fixed-width
   uints) validate the range once at the API edge and then copy frame by
   frame, with no intermediate allocation. *)

let chunk_shift = 8
let chunk_pages = 1 lsl chunk_shift
let chunk_mask = chunk_pages - 1

type t = {
  total_pages : int;
  total_bytes : int;
  chunks : Bytes.t array array;
  no_chunk : Bytes.t array;
  meta : Page.t;
  mutable reclaimed : Addr.pfn array; (* first [reclaimed_count] used, top last *)
  mutable reclaimed_count : int;
  mutable fresh : Addr.pfn; (* pages at or above it were never allocated *)
  mutable materialized_count : int;
}

let create ~total_pages () =
  if total_pages <= 0 then invalid_arg "Phys_mem.create: no pages";
  let no_chunk = Array.make chunk_pages Bytes.empty in
  {
    total_pages;
    total_bytes = total_pages * Addr.page_size;
    chunks = Array.make ((total_pages + chunk_mask) lsr chunk_shift) no_chunk;
    no_chunk;
    meta = Page.create ~pages:total_pages;
    reclaimed = [||];
    reclaimed_count = 0;
    fresh = 0;
    materialized_count = 0;
  }

let page_mask = Addr.page_size - 1
let free_pages t = t.reclaimed_count + t.total_pages - t.fresh
let[@cdna.hot] materialized_pages t = t.materialized_count

(* First touch of [pfn]: a zeroed frame, in a fresh chunk if its chunk
   is still [no_chunk]. *)
let[@inline never] materialize t pfn =
  let c = pfn lsr chunk_shift in
  let chunk =
    if t.chunks.(c) != t.no_chunk then t.chunks.(c)
    else begin
      let chunk = Array.make chunk_pages Bytes.empty in
      t.chunks.(c) <- chunk;
      chunk
    end
  in
  let f = Bytes.make Addr.page_size '\000' in
  chunk.(pfn land chunk_mask) <- f;
  t.materialized_count <- t.materialized_count + 1;
  f

(* The frame backing [pfn], zero-filled on first touch. Called after the
   range has been validated. *)
let[@cdna.hot] frame t pfn =
  let chunk = Array.unsafe_get t.chunks (pfn lsr chunk_shift) in
  let f = Array.unsafe_get chunk (pfn land chunk_mask) in
  if f != Bytes.empty then f
  else
    (materialize t pfn
    [@cdna.alloc_ok
      "one 256-slot chunk per 256 pages and one 4 KB frame per page, on \
       first touch only"])

let check_pfn t pfn =
  if pfn < 0 || pfn >= t.total_pages then
    invalid_arg "Phys_mem: pfn out of range"

let state t pfn =
  check_pfn t pfn;
  Page.state t.meta pfn

let refcount t pfn =
  check_pfn t pfn;
  Page.refcount t.meta pfn

(* Pages [i] to [count - 1] of an allocation: the reclaimed stack from
   its top, then fresh pages. Recursion here and in [own_all] builds the
   list and no closures; tail-modulo-cons keeps a domain's tens of
   thousands of pages off the stack, which a plain recursion would grow
   and every minor collection would rescan. *)
let[@tail_mod_cons] rec take t ~from_stack ~top i count =
  if i = count then []
  else
    let pfn =
      if i < from_stack then t.reclaimed.(top - i) else t.fresh + i - from_stack
    in
    pfn :: take t ~from_stack ~top (i + 1) count

let rec own_all meta owner = function
  | [] -> ()
  | pfn :: rest ->
      Page.set_owned meta pfn owner;
      own_all meta owner rest

let alloc t ~owner ~count =
  if count < 0 then invalid_arg "Phys_mem.alloc: negative count";
  if count > free_pages t then Error `Out_of_memory
  else begin
    let from_stack = Int.min count t.reclaimed_count in
    let top = t.reclaimed_count - 1 in
    let taken = take t ~from_stack ~top 0 count in
    (* Before popping: a bad [owner] raises on the first page unchanged. *)
    own_all t.meta owner taken;
    t.reclaimed_count <- t.reclaimed_count - from_stack;
    t.fresh <- t.fresh + count - from_stack;
    Ok taken
  end

let reclaim t pfn =
  if t.reclaimed_count = Array.length t.reclaimed then begin
    let grown = Array.make (Int.max 16 (2 * t.reclaimed_count)) 0 in
    Array.blit t.reclaimed 0 grown 0 t.reclaimed_count;
    t.reclaimed <- grown
  end;
  t.reclaimed.(t.reclaimed_count) <- pfn;
  t.reclaimed_count <- t.reclaimed_count + 1;
  let chunk = t.chunks.(pfn lsr chunk_shift) and i = pfn land chunk_mask in
  if chunk.(i) != Bytes.empty then begin
    chunk.(i) <- Bytes.empty;
    t.materialized_count <- t.materialized_count - 1
  end

let free t pfn =
  check_pfn t pfn;
  Page.release t.meta pfn;
  (* Unreferenced pages go straight to Free; pinned ones stay quarantined. *)
  if Page.refcount t.meta pfn = 0 then reclaim t pfn

let transfer t pfn ~to_ =
  check_pfn t pfn;
  Page.transfer t.meta pfn to_

let get_ref t pfn =
  check_pfn t pfn;
  Page.get_ref t.meta pfn

let put_ref t pfn =
  check_pfn t pfn;
  match Page.put_ref t.meta pfn with
  | `Now_free -> reclaim t pfn
  | `Still_held -> ()

let owned_by t pfn dom =
  pfn >= 0 && pfn < t.total_pages && Page.is_owned_by t.meta pfn dom

let owned_pages t dom =
  let rec scan pfn acc =
    if pfn < 0 then acc
    else
      scan (pfn - 1) (if Page.is_owned_by t.meta pfn dom then pfn :: acc else acc)
  in
  scan (t.total_pages - 1) []

let[@cdna.hot] valid_range t ~addr ~len =
  len >= 0 && addr >= 0 && len <= t.total_bytes && addr <= t.total_bytes - len

let[@cdna.hot] check_range t ~addr ~len =
  if len < 0 then invalid_arg "Phys_mem: negative length";
  if addr < 0 || len > t.total_bytes || addr > t.total_bytes - len then
    invalid_arg "Phys_mem: address range out of bounds"

(* Copy [len] bytes between physical [addr] and [buf] at [pos], one
   frame at a time; [to_mem] picks the direction. *)
let[@cdna.hot] rec blit_frames t ~to_mem addr buf pos len =
  if len > 0 then begin
    let off = addr land page_mask in
    let n = Int.min len (Addr.page_size - off) in
    let f = frame t (addr lsr Addr.page_shift) in
    if to_mem then Bytes.blit buf pos f off n else Bytes.blit f off buf pos n;
    blit_frames t ~to_mem (addr + n) buf (pos + n) (len - n)
  end

let[@cdna.hot] read_into t ~addr ~len dst ~pos =
  check_range t ~addr ~len;
  if pos < 0 || pos + len > Bytes.length dst then
    invalid_arg "Phys_mem.read_into: destination range out of bounds";
  blit_frames t ~to_mem:false addr dst pos len

let[@cdna.hot] write_sub t ~addr src ~pos ~len =
  check_range t ~addr ~len;
  if pos < 0 || len < 0 || pos + len > Bytes.length src then
    invalid_arg "Phys_mem.write_sub: source range out of bounds";
  blit_frames t ~to_mem:true addr src pos len

let read t ~addr ~len =
  check_range t ~addr ~len;
  let b = Bytes.create len in
  blit_frames t ~to_mem:false addr b 0 len;
  b

let[@cdna.hot] write t ~addr data = write_sub t ~addr data ~pos:0 ~len:(Bytes.length data)

(* Fixed-width little-endian fields. A field inside one page (every
   aligned descriptor field) looks its frame up once; one straddling a
   page boundary goes byte by byte. *)

let[@cdna.hot] rec get_le f off i acc =
  if i < 0 then acc
  else
    get_le f off (i - 1) ((acc lsl 8) lor Char.code (Bytes.unsafe_get f (off + i)))

let[@cdna.hot] rec set_le f off i bytes v =
  if i < bytes then begin
    Bytes.unsafe_set f (off + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xff));
    set_le f off (i + 1) bytes v
  end

let[@cdna.hot] rec get_straddling t addr i acc =
  if i < 0 then acc
  else
    let a = addr + i in
    let b = Bytes.unsafe_get (frame t (a lsr Addr.page_shift)) (a land page_mask) in
    get_straddling t addr (i - 1) ((acc lsl 8) lor Char.code b)

let[@cdna.hot] rec set_straddling t addr i bytes v =
  if i < bytes then begin
    let a = addr + i in
    let b = Char.unsafe_chr ((v lsr (8 * i)) land 0xff) in
    Bytes.unsafe_set (frame t (a lsr Addr.page_shift)) (a land page_mask) b;
    set_straddling t addr (i + 1) bytes v
  end

let[@cdna.hot] read_uint t ~addr ~bytes =
  check_range t ~addr ~len:bytes;
  let off = addr land page_mask in
  if off + bytes <= Addr.page_size then
    get_le (frame t (addr lsr Addr.page_shift)) off (bytes - 1) 0
  else get_straddling t addr (bytes - 1) 0

let[@cdna.hot] write_uint t ~addr ~bytes v =
  check_range t ~addr ~len:bytes;
  let off = addr land page_mask in
  if off + bytes <= Addr.page_size then
    set_le (frame t (addr lsr Addr.page_shift)) off 0 bytes v
  else set_straddling t addr 0 bytes v

let[@cdna.hot] read_u16 t ~addr = read_uint t ~addr ~bytes:2
let[@cdna.hot] write_u16 t ~addr v = write_uint t ~addr ~bytes:2 v
let[@cdna.hot] read_u32 t ~addr = read_uint t ~addr ~bytes:4
let[@cdna.hot] write_u32 t ~addr v = write_uint t ~addr ~bytes:4 v
let[@cdna.hot] read_u64 t ~addr = read_uint t ~addr ~bytes:8
let[@cdna.hot] write_u64 t ~addr v = write_uint t ~addr ~bytes:8 v
