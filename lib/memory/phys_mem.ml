(* Sparse physical memory.

   Each page has its own 4 KB frame in [frames]. Untouched pages all
   point at the shared [Bytes.empty] sentinel, so a machine costs a few
   words per page plus 4 KB per page actually touched. The first touch
   allocates a zeroed frame; reclaiming a page drops its frame again, so
   a reallocated page zero-fills on next access and never leaks the
   previous owner's bytes. Ownership and refcounts live in one {!Page.t}
   (two flat int arrays), and the free list is an int stack ordered as
   the old list was: lowest pfn first, reclaimed pages reused LIFO.

   The datapath accessors ([read_into], [write_sub], the fixed-width
   uints) validate the range once at the API edge and then copy frame by
   frame, with no intermediate allocation. *)

type t = {
  total_pages : int;
  total_bytes : int;
  frames : Bytes.t array; (* [Bytes.empty] until first touch *)
  meta : Page.t;
  free : Addr.pfn array; (* stack: [free.(free_count - 1)] goes next *)
  mutable free_count : int;
  mutable materialized_count : int;
}

let create ~total_pages () =
  if total_pages <= 0 then invalid_arg "Phys_mem.create: no pages";
  {
    total_pages;
    total_bytes = total_pages * Addr.page_size;
    frames = Array.make total_pages Bytes.empty;
    meta = Page.create ~pages:total_pages;
    free = Array.init total_pages (fun i -> total_pages - 1 - i);
    free_count = total_pages;
    materialized_count = 0;
  }

let page_mask = Addr.page_size - 1
let total_pages t = t.total_pages
let free_pages t = t.free_count
let[@cdna.hot] materialized_pages t = t.materialized_count

(* The frame backing [pfn], zero-filled on first touch. Called after the
   range has been validated. *)
let[@cdna.hot] frame t pfn =
  let f = Array.unsafe_get t.frames pfn in
  if f != Bytes.empty then f
  else begin
    let f =
      (Bytes.make Addr.page_size '\000'
      [@cdna.alloc_ok "one 4 KB frame per page, on first touch only"])
    in
    Array.unsafe_set t.frames pfn f;
    t.materialized_count <- t.materialized_count + 1;
    f
  end

let check_pfn t pfn =
  if pfn < 0 || pfn >= t.total_pages then
    invalid_arg "Phys_mem: pfn out of range"

let state t pfn =
  check_pfn t pfn;
  Page.state t.meta pfn

let refcount t pfn =
  check_pfn t pfn;
  Page.refcount t.meta pfn

let alloc t ~owner ~count =
  if count < 0 then invalid_arg "Phys_mem.alloc: negative count";
  if count > t.free_count then Error `Out_of_memory
  else begin
    let top = t.free_count - 1 in
    let taken = List.init count (fun i -> t.free.(top - i)) in
    (* Before popping: a bad [owner] raises on the first page unchanged. *)
    List.iter (fun pfn -> Page.set_owned t.meta pfn owner) taken;
    t.free_count <- t.free_count - count;
    Ok taken
  end

let reclaim t pfn =
  t.free.(t.free_count) <- pfn;
  t.free_count <- t.free_count + 1;
  if t.frames.(pfn) != Bytes.empty then begin
    t.frames.(pfn) <- Bytes.empty;
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
