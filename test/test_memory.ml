(* Tests for the memory substrate: addresses, page ownership/refcounts,
   physical memory, DMA descriptors, IOMMU. *)

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ---------- Addr ---------- *)

let test_addr_basics () =
  check_int "page size" 4096 Memory.Addr.page_size;
  check_int "pfn" 2 (Memory.Addr.pfn_of 8192);
  check_int "pfn mid-page" 2 (Memory.Addr.pfn_of 8200);
  check_int "base" 8192 (Memory.Addr.base_of_pfn 2);
  check_int "offset" 8 (Memory.Addr.offset 8200)

let test_addr_pages_spanned () =
  check (Alcotest.list Alcotest.int) "within one page" [ 1 ]
    (Memory.Addr.pages_spanned ~addr:4096 ~len:100);
  check (Alcotest.list Alcotest.int) "across boundary" [ 0; 1 ]
    (Memory.Addr.pages_spanned ~addr:4000 ~len:200);
  check (Alcotest.list Alcotest.int) "exact page" [ 3 ]
    (Memory.Addr.pages_spanned ~addr:(3 * 4096) ~len:4096);
  check (Alcotest.list Alcotest.int) "empty" []
    (Memory.Addr.pages_spanned ~addr:4096 ~len:0);
  Alcotest.check_raises "negative" (Invalid_argument "Addr.pages_spanned: negative length")
    (fun () -> ignore (Memory.Addr.pages_spanned ~addr:0 ~len:(-1)))

let prop_pages_spanned_count =
  QCheck.Test.make ~name:"pages_spanned covers the byte range" ~count:200
    QCheck.(pair (int_range 0 100_000) (int_range 1 20_000))
    (fun (addr, len) ->
      let pages = Memory.Addr.pages_spanned ~addr ~len in
      let first = Memory.Addr.pfn_of addr in
      let last = Memory.Addr.pfn_of (addr + len - 1) in
      List.length pages = last - first + 1
      && List.for_all (fun p -> p >= first && p <= last) pages)

(* ---------- Page ---------- *)

let test_page_lifecycle () =
  let m = Memory.Page.create ~pages:8 and p = 7 in
  check_bool "starts free" true (Memory.Page.state m p = Memory.Page.Free);
  Memory.Page.set_owned m p 3;
  check_bool "owned" true (Memory.Page.is_owned_by m p 3);
  check_bool "not other" false (Memory.Page.is_owned_by m p 4);
  Memory.Page.release m p;
  check_bool "free again" true (Memory.Page.state m p = Memory.Page.Free)

let test_page_quarantine () =
  let m = Memory.Page.create ~pages:8 and p = 7 in
  Memory.Page.set_owned m p 1;
  Memory.Page.get_ref m p;
  Memory.Page.get_ref m p;
  Memory.Page.release m p;
  check_bool "quarantined" true
    (match Memory.Page.state m p with Memory.Page.Quarantined 1 -> true | _ -> false);
  check_bool "first put still held" true (Memory.Page.put_ref m p = `Still_held);
  check_bool "last put frees" true (Memory.Page.put_ref m p = `Now_free);
  check_bool "now free" true (Memory.Page.state m p = Memory.Page.Free)

let test_page_transfer () =
  let m = Memory.Page.create ~pages:2 and p = 1 in
  Memory.Page.set_owned m p 1;
  check_bool "transfer ok" true (Memory.Page.transfer m p 2 = Ok ());
  check_bool "new owner" true (Memory.Page.is_owned_by m p 2);
  Memory.Page.get_ref m p;
  check_bool "pinned refuses" true (Memory.Page.transfer m p 3 = Error `Pinned)

let test_page_invalid_transitions () =
  let m = Memory.Page.create ~pages:1 and p = 0 in
  Alcotest.check_raises "ref free page" (Invalid_argument "Page.get_ref: free page")
    (fun () -> Memory.Page.get_ref m p);
  Alcotest.check_raises "release free" (Invalid_argument "Page.release: page not owned")
    (fun () -> Memory.Page.release m p);
  Memory.Page.set_owned m p 1;
  Alcotest.check_raises "double own" (Invalid_argument "Page.set_owned: page not free")
    (fun () -> Memory.Page.set_owned m p 2);
  Alcotest.check_raises "put at zero" (Invalid_argument "Page.put_ref: refcount already zero")
    (fun () -> ignore (Memory.Page.put_ref m p))

(* The count sits in the low 24 bits of the page's word: one reference
   past 2^24 - 1 raises instead of carrying into the state code. *)
let test_page_refcount_overflow () =
  let m = Memory.Page.create ~pages:2 and p = 0 in
  Memory.Page.set_owned m p 3;
  let max_refs = (1 lsl 24) - 1 in
  for _ = 1 to max_refs do Memory.Page.get_ref m p done;
  check_int "count at the limit" max_refs (Memory.Page.refcount m p);
  Alcotest.check_raises "one more"
    (Invalid_argument "Page.get_ref: refcount overflow")
    (fun () -> Memory.Page.get_ref m p);
  check_bool "still owned" true (Memory.Page.is_owned_by m p 3);
  check_int "count unchanged" max_refs (Memory.Page.refcount m p);
  check_bool "neighbour untouched" true
    (Memory.Page.state m 1 = Memory.Page.Free)

(* Owner codes are d + 2, so an id below the hypervisor's -1 would read
   back as Free or Quarantined: both entry points refuse it, and a
   refused [alloc] takes nothing. *)
let test_page_domain_id_range () =
  let m = Memory.Page.create ~pages:1 and p = 0 in
  Alcotest.check_raises "set_owned"
    (Invalid_argument "Page.set_owned: domain id below -1")
    (fun () -> Memory.Page.set_owned m p (-2));
  Memory.Page.set_owned m p (-1);
  check_bool "hypervisor owns" true (Memory.Page.is_owned_by m p (-1));
  Alcotest.check_raises "transfer"
    (Invalid_argument "Page.transfer: domain id below -1")
    (fun () -> ignore (Memory.Page.transfer m p (-2)));
  let pm = Memory.Phys_mem.create ~total_pages:2 () in
  Alcotest.check_raises "alloc"
    (Invalid_argument "Page.set_owned: domain id below -1")
    (fun () -> ignore (Memory.Phys_mem.alloc pm ~owner:(-2) ~count:2));
  check_int "nothing taken" 2 (Memory.Phys_mem.free_pages pm)

let prop_page_refcount_balance =
  QCheck.Test.make ~name:"balanced get/put leaves refcount zero" ~count:100
    QCheck.(int_range 0 50)
    (fun n ->
      let m = Memory.Page.create ~pages:1 and p = 0 in
      Memory.Page.set_owned m p 1;
      for _ = 1 to n do Memory.Page.get_ref m p done;
      for _ = 1 to n do ignore (Memory.Page.put_ref m p) done;
      Memory.Page.refcount m p = 0)

(* ---------- Phys_mem ---------- *)

let mem () = Memory.Phys_mem.create ~total_pages:64 ()

let test_mem_alloc_free () =
  let m = mem () in
  check_int "all free" 64 (Memory.Phys_mem.free_pages m);
  let pages = Result.get_ok (Memory.Phys_mem.alloc m ~owner:1 ~count:10) in
  check_int "ten allocated" 10 (List.length pages);
  check_int "free count" 54 (Memory.Phys_mem.free_pages m);
  List.iter (fun p -> check_bool "owned" true (Memory.Phys_mem.owned_by m p 1)) pages;
  List.iter (Memory.Phys_mem.free m) pages;
  check_int "all free again" 64 (Memory.Phys_mem.free_pages m)

let test_mem_out_of_memory () =
  let m = mem () in
  check_bool "oom" true
    (Memory.Phys_mem.alloc m ~owner:1 ~count:65 = Error `Out_of_memory);
  (* And nothing was taken. *)
  check_int "intact" 64 (Memory.Phys_mem.free_pages m)

let test_mem_quarantine_blocks_realloc () =
  let m = Memory.Phys_mem.create ~total_pages:2 () in
  let pages = Result.get_ok (Memory.Phys_mem.alloc m ~owner:1 ~count:2) in
  let p = List.hd pages in
  Memory.Phys_mem.get_ref m p;
  Memory.Phys_mem.free m p;
  (* Quarantined: not available. *)
  check_bool "not reallocatable" true
    (Memory.Phys_mem.alloc m ~owner:2 ~count:1 = Error `Out_of_memory);
  Memory.Phys_mem.put_ref m p;
  let re = Result.get_ok (Memory.Phys_mem.alloc m ~owner:2 ~count:1) in
  check (Alcotest.list Alcotest.int) "reclaimed page" [ p ] re

let test_mem_rw_roundtrip () =
  let m = mem () in
  let data = Bytes.of_string "hello, descriptor rings" in
  Memory.Phys_mem.write m ~addr:100 data;
  check Alcotest.string "roundtrip" "hello, descriptor rings"
    (Bytes.to_string (Memory.Phys_mem.read m ~addr:100 ~len:(Bytes.length data)))

let test_mem_rw_across_pages () =
  let m = mem () in
  let data = Bytes.init 8192 (fun i -> Char.chr (i land 0xff)) in
  Memory.Phys_mem.write m ~addr:2048 data;
  let back = Memory.Phys_mem.read m ~addr:2048 ~len:8192 in
  check_bool "multi-page roundtrip" true (Bytes.equal data back)

let test_mem_zero_fill () =
  let m = mem () in
  let b = Memory.Phys_mem.read m ~addr:0 ~len:16 in
  check_bool "untouched memory reads zero" true
    (Bytes.for_all (fun c -> c = '\000') b)

let test_mem_realloc_clears_contents () =
  let m = Memory.Phys_mem.create ~total_pages:1 () in
  let p = List.hd (Result.get_ok (Memory.Phys_mem.alloc m ~owner:1 ~count:1)) in
  Memory.Phys_mem.write m ~addr:(Memory.Addr.base_of_pfn p) (Bytes.of_string "secret");
  Memory.Phys_mem.free m p;
  let p2 = List.hd (Result.get_ok (Memory.Phys_mem.alloc m ~owner:2 ~count:1)) in
  check_int "same frame" p p2;
  let b = Memory.Phys_mem.read m ~addr:(Memory.Addr.base_of_pfn p2) ~len:6 in
  check_bool "no data leak across realloc" true
    (Bytes.for_all (fun c -> c = '\000') b)

let test_mem_u_accessors () =
  let m = mem () in
  Memory.Phys_mem.write_u16 m ~addr:10 0xBEEF;
  Memory.Phys_mem.write_u32 m ~addr:20 0xDEADBEEF;
  Memory.Phys_mem.write_u64 m ~addr:30 0x123456789AB;
  check_int "u16" 0xBEEF (Memory.Phys_mem.read_u16 m ~addr:10);
  check_int "u32" 0xDEADBEEF (Memory.Phys_mem.read_u32 m ~addr:20);
  check_int "u64" 0x123456789AB (Memory.Phys_mem.read_u64 m ~addr:30)

let test_mem_bounds () =
  let m = mem () in
  Alcotest.check_raises "oob read"
    (Invalid_argument "Phys_mem: address range out of bounds") (fun () ->
      ignore (Memory.Phys_mem.read m ~addr:(64 * 4096 - 4) ~len:8));
  Alcotest.check_raises "bad pfn" (Invalid_argument "Phys_mem: pfn out of range")
    (fun () -> ignore (Memory.Phys_mem.state m 64))

let test_mem_transfer () =
  let m = mem () in
  let p = List.hd (Result.get_ok (Memory.Phys_mem.alloc m ~owner:1 ~count:1)) in
  check_bool "flip" true (Memory.Phys_mem.transfer m p ~to_:2 = Ok ());
  check_bool "owner changed" true (Memory.Phys_mem.owned_by m p 2);
  check_int "free list untouched" 63 (Memory.Phys_mem.free_pages m)

(* Reclaimed pages go first, most recent first, then fresh pages in
   ascending order, within one call and across 256-page frame chunks. *)
let test_mem_alloc_order () =
  let m = Memory.Phys_mem.create ~total_pages:600 () in
  let pages = Result.get_ok (Memory.Phys_mem.alloc m ~owner:1 ~count:300) in
  check (Alcotest.list Alcotest.int) "fresh ascending" (List.init 300 Fun.id)
    pages;
  List.iter (Memory.Phys_mem.free m) [ 10; 256; 255 ];
  check (Alcotest.list Alcotest.int) "reclaimed LIFO, then fresh"
    [ 255; 256; 10; 300; 301 ]
    (Result.get_ok (Memory.Phys_mem.alloc m ~owner:2 ~count:5));
  check_int "free count" 298 (Memory.Phys_mem.free_pages m)

let prop_mem_alloc_disjoint =
  QCheck.Test.make ~name:"allocations to different owners are disjoint" ~count:50
    QCheck.(pair (int_range 1 20) (int_range 1 20))
    (fun (a, b) ->
      let m = Memory.Phys_mem.create ~total_pages:64 () in
      let pa = Result.get_ok (Memory.Phys_mem.alloc m ~owner:1 ~count:a) in
      let pb = Result.get_ok (Memory.Phys_mem.alloc m ~owner:2 ~count:b) in
      List.for_all (fun p -> not (List.mem p pb)) pa)

(* ---------- Flat-backing equivalence (qcheck) ----------

   The flat [Phys_mem] must be observationally identical to the page-table
   semantics it replaced: a plain zero-initialized byte array is the
   reference model (zero-fill-on-first-touch means untouched memory reads
   as zeros). Random op sequences run against both and every read must
   agree. *)

let model_pages = 16
let model_bytes = model_pages * Memory.Addr.page_size

(* op = (selector, addr-ish, len-ish, value) mapped into range inside the
   property, so shrinking stays meaningful. *)
let op_gen =
  QCheck.(
    quad (int_range 0 3) (int_range 0 (model_bytes - 1)) (int_range 0 9000)
      (int_range 0 max_int))

let le_model_write model ~addr ~bytes v =
  for i = 0 to bytes - 1 do
    Bytes.set model (addr + i) (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let le_model_read model ~addr ~bytes =
  let v = ref 0 in
  for i = bytes - 1 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get model (addr + i))
  done;
  !v

let prop_mem_model_equiv =
  QCheck.Test.make ~name:"flat phys_mem matches byte-array model" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 40) op_gen)
    (fun ops ->
      let m = Memory.Phys_mem.create ~total_pages:model_pages () in
      let model = Bytes.make model_bytes '\000' in
      List.for_all
        (fun (sel, a, l, v) ->
          match sel with
          | 0 ->
              (* write random bytes, possibly page-straddling *)
              let len = min l (model_bytes - a) in
              let data =
                Bytes.init len (fun i -> Char.chr ((v + i) land 0xff))
              in
              Memory.Phys_mem.write m ~addr:a data;
              Bytes.blit data 0 model a len;
              true
          | 1 ->
              (* read and compare against the model *)
              let len = min l (model_bytes - a) in
              Bytes.equal
                (Memory.Phys_mem.read m ~addr:a ~len)
                (Bytes.sub model a len)
          | 2 ->
              (* variable-width little-endian write, widths 1-8; both
                 sides truncate wide values the same way *)
              let bytes = 1 + (l mod 8) in
              let a = min a (model_bytes - bytes) in
              Memory.Phys_mem.write_uint m ~addr:a ~bytes v;
              le_model_write model ~addr:a ~bytes v;
              true
          | _ ->
              (* variable-width read agrees with the model *)
              let bytes = 1 + (l mod 8) in
              let a = min a (model_bytes - bytes) in
              Memory.Phys_mem.read_uint m ~addr:a ~bytes
              = le_model_read model ~addr:a ~bytes)
        ops
      && Bytes.equal (Memory.Phys_mem.read m ~addr:0 ~len:model_bytes) model)

let prop_mem_read_into_equiv =
  QCheck.Test.make ~name:"read_into/write_sub agree with read/write"
    ~count:200
    QCheck.(triple (int_range 0 (model_bytes - 1)) (int_range 0 9000) int)
    (fun (addr, l, seed) ->
      let m = Memory.Phys_mem.create ~total_pages:model_pages () in
      let len = min l (model_bytes - addr) in
      let pos = addr land 63 in
      let src = Bytes.init (pos + len) (fun i -> Char.chr ((seed + i) land 0xff)) in
      Memory.Phys_mem.write_sub m ~addr src ~pos ~len;
      let via_read = Memory.Phys_mem.read m ~addr ~len in
      let dst = Bytes.make (pos + len) '\xAA' in
      Memory.Phys_mem.read_into m ~addr ~len dst ~pos;
      Bytes.equal via_read (Bytes.sub src pos len)
      && Bytes.equal (Bytes.sub dst pos len) via_read)

let prop_mem_uint_widths =
  QCheck.Test.make ~name:"fixed-width accessors agree with read_uint"
    ~count:200
    QCheck.(pair (int_range 0 (model_bytes - 9)) int)
    (fun (addr, v) ->
      let m = Memory.Phys_mem.create ~total_pages:model_pages () in
      let v = abs v in
      Memory.Phys_mem.write_u16 m ~addr (v land 0xFFFF);
      let ok16 =
        Memory.Phys_mem.read_u16 m ~addr
        = Memory.Phys_mem.read_uint m ~addr ~bytes:2
      in
      Memory.Phys_mem.write_u32 m ~addr (v land 0xFFFFFFFF);
      let ok32 =
        Memory.Phys_mem.read_u32 m ~addr
        = Memory.Phys_mem.read_uint m ~addr ~bytes:4
      in
      Memory.Phys_mem.write_u64 m ~addr v;
      let ok64 =
        Memory.Phys_mem.read_u64 m ~addr
        = Memory.Phys_mem.read_uint m ~addr ~bytes:8
        && Memory.Phys_mem.read_u64 m ~addr = v
      in
      ok16 && ok32 && ok64)

let prop_mem_zero_fill_after_reclaim =
  QCheck.Test.make ~name:"reclaimed pages read as zeros" ~count:100
    QCheck.(pair (int_range 0 (Memory.Addr.page_size - 1)) (int_range 1 255))
    (fun (off, byte) ->
      let m = Memory.Phys_mem.create ~total_pages:4 () in
      let p = List.hd (Result.get_ok (Memory.Phys_mem.alloc m ~owner:1 ~count:1)) in
      let addr = Memory.Addr.base_of_pfn p + off in
      Memory.Phys_mem.write m ~addr (Bytes.make 1 (Char.chr byte));
      let materialized = Memory.Phys_mem.materialized_pages m in
      Memory.Phys_mem.free m p;
      let p2 = List.hd (Result.get_ok (Memory.Phys_mem.alloc m ~owner:2 ~count:1)) in
      p = p2
      && materialized = 1
      (* the reclaim dropped the page from the materialized accounting *)
      && Memory.Phys_mem.materialized_pages m = 0
      (* zero-fill-on-reclaim: dirty contents never leak across owners *)
      && Memory.Phys_mem.read m ~addr ~len:1 = Bytes.make 1 '\000')

let prop_mem_valid_range_consistent =
  QCheck.Test.make ~name:"valid_range iff read does not raise" ~count:300
    QCheck.(pair (int_range (-200) (model_bytes + 200)) (int_range (-8) 9000))
    (fun (addr, len) ->
      let m = Memory.Phys_mem.create ~total_pages:model_pages () in
      let valid = Memory.Phys_mem.valid_range m ~addr ~len in
      let read_ok =
        match Memory.Phys_mem.read m ~addr ~len with
        | (_ : Bytes.t) -> true
        | exception Invalid_argument _ -> false
      in
      valid = read_ok)

(* ---------- Ownership model (qcheck) ----------

   Random alloc/free/get_ref/put_ref/transfer/write sequences, with
   owners that include the hypervisor's -1, run against [Phys_mem] and a
   longhand reference model of the page state machine: a variant state
   and a refcount per pfn, the free list as a plain list (lowest pfn
   first, reclaimed pages pushed on the front) and one content byte per
   page that reclaim clears. After every step both must agree on the
   result (allocated pfns in order, [`Pinned], out of memory, or a
   raise), on every page's state, refcount and first byte, and on the
   free count. The model runs twice: over 8 pages, and over 600 pages
   (three frame chunks) after a fixed prefix that allocates across two
   chunk boundaries, frees pages on both sides of them and then takes
   reclaimed and fresh pages in one [alloc]. *)

type own_model = {
  st : Memory.Page.state array;
  refs : int array;
  mutable free_list : int list;
  byte : int array;
}

let model_reclaim md pfn =
  md.st.(pfn) <- Memory.Page.Free;
  md.free_list <- pfn :: md.free_list;
  md.byte.(pfn) <- 0

let model_step md (sel, pfn, owner, n) =
  match sel with
  | 0 ->
      if n > List.length md.free_list then `Oom
      else begin
        let taken = List.filteri (fun i _ -> i < n) md.free_list in
        md.free_list <- List.filteri (fun i _ -> i >= n) md.free_list;
        List.iter (fun p -> md.st.(p) <- Memory.Page.Owned owner) taken;
        `Pages taken
      end
  | 1 -> (
      match md.st.(pfn) with
      | Memory.Page.Owned d ->
          if md.refs.(pfn) = 0 then model_reclaim md pfn
          else md.st.(pfn) <- Memory.Page.Quarantined d;
          `Unit
      | Memory.Page.Free | Memory.Page.Quarantined _ -> `Raises)
  | 2 -> (
      match md.st.(pfn) with
      | Memory.Page.Free -> `Raises
      | Memory.Page.Owned _ | Memory.Page.Quarantined _ ->
          md.refs.(pfn) <- md.refs.(pfn) + 1;
          `Unit)
  | 3 ->
      if md.refs.(pfn) = 0 then `Raises
      else begin
        md.refs.(pfn) <- md.refs.(pfn) - 1;
        (match md.st.(pfn) with
        | Memory.Page.Quarantined _ when md.refs.(pfn) = 0 -> model_reclaim md pfn
        | _ -> ());
        `Unit
      end
  | 4 -> (
      match md.st.(pfn) with
      | Memory.Page.Owned _ when md.refs.(pfn) > 0 -> `Pinned
      | Memory.Page.Owned _ ->
          md.st.(pfn) <- Memory.Page.Owned owner;
          `Unit
      | Memory.Page.Free | Memory.Page.Quarantined _ -> `Raises)
  | _ ->
      md.byte.(pfn) <- n + 1;
      `Unit

let real_step m (sel, pfn, owner, n) =
  match
    match sel with
    | 0 -> (
        match Memory.Phys_mem.alloc m ~owner ~count:n with
        | Ok pages -> `Pages pages
        | Error `Out_of_memory -> `Oom)
    | 1 -> Memory.Phys_mem.free m pfn; `Unit
    | 2 -> Memory.Phys_mem.get_ref m pfn; `Unit
    | 3 -> Memory.Phys_mem.put_ref m pfn; `Unit
    | 4 -> (
        match Memory.Phys_mem.transfer m pfn ~to_:owner with
        | Ok () -> `Unit
        | Error `Pinned -> `Pinned)
    | _ ->
        Memory.Phys_mem.write m ~addr:(Memory.Addr.base_of_pfn pfn)
          (Bytes.make 1 (Char.chr (n + 1)));
        `Unit
  with
  | r -> r
  | exception Invalid_argument _ -> `Raises

let ownership_model ~name ~count ~pages ~prefix ~pfns =
  QCheck.Test.make ~name ~count
    QCheck.(
      list_of_size Gen.(int_range 1 60)
        (quad (int_range 0 5) pfns (int_range (-1) 2) (int_range 0 4)))
    (fun ops ->
      let m = Memory.Phys_mem.create ~total_pages:pages () in
      let md =
        {
          st = Array.make pages Memory.Page.Free;
          refs = Array.make pages 0;
          free_list = List.init pages Fun.id;
          byte = Array.make pages 0;
        }
      in
      List.for_all
        (fun op ->
          real_step m op = model_step md op
          && Memory.Phys_mem.free_pages m = List.length md.free_list
          && List.for_all
               (fun pfn ->
                 Memory.Phys_mem.state m pfn = md.st.(pfn)
                 && Memory.Phys_mem.refcount m pfn = md.refs.(pfn)
                 && Memory.Phys_mem.read_uint m
                      ~addr:(Memory.Addr.base_of_pfn pfn) ~bytes:1
                    = md.byte.(pfn))
               (List.init pages Fun.id))
        (prefix @ ops))

let prop_mem_ownership_model =
  ownership_model ~name:"ownership matches the page state machine model"
    ~count:300 ~pages:8 ~prefix:[] ~pfns:QCheck.(int_range 0 7)

(* Ops are (selector, pfn, owner, n); selector 0 allocates n pages, 1
   frees, 5 writes. The prefix owns pages 0..519, writes and frees 255,
   256, 511 and 512, and its last [alloc] takes 255, 256, 512, 511 off
   the reclaimed stack and 520, 521 from the fresh cursor. *)
let prop_mem_ownership_model_chunks =
  let write pfn = (5, pfn, 0, 7) and free pfn = (1, pfn, 0, 0) in
  ownership_model
    ~name:"ownership matches the page state machine model over 600 pages"
    ~count:60 ~pages:600
    ~prefix:
      ([ (0, 0, 1, 520) ]
      @ List.map write [ 255; 256; 511; 512 ]
      @ List.map free [ 511; 512; 256; 255 ]
      @ [ (0, 0, 2, 6) ])
    ~pfns:QCheck.(oneof [ int_range 248 264; int_range 504 527; int_range 590 599 ])

(* Steady-state accessors must not touch the minor heap: this is what
   keeps the per-descriptor DMA path allocation-free. The epsilon absorbs
   [Gc.minor_words]'s own boxed-float result. *)
let test_mem_zero_alloc_accessors () =
  let m = mem () in
  let buf = Bytes.create 2048 in
  let sink = ref 0 in
  (* Touch everything once so lazy page materialization and CRC table
     construction happen outside the measured window. *)
  Memory.Phys_mem.write_sub m ~addr:100 buf ~pos:0 ~len:2048;
  sink := Ethernet.Crc32.digest_sub buf ~pos:0 ~len:1500;
  let before = Gc.minor_words () in
  for i = 1 to 1000 do
    Memory.Phys_mem.write_u64 m ~addr:64 i;
    sink := !sink + Memory.Phys_mem.read_u64 m ~addr:64;
    Memory.Phys_mem.write_u32 m ~addr:72 i;
    sink := !sink + Memory.Phys_mem.read_u32 m ~addr:72;
    Memory.Phys_mem.write_u16 m ~addr:76 (i land 0xFFFF);
    sink := !sink + Memory.Phys_mem.read_u16 m ~addr:76;
    Memory.Phys_mem.write_sub m ~addr:4000 buf ~pos:16 ~len:1500;
    Memory.Phys_mem.read_into m ~addr:4000 ~len:1500 buf ~pos:16;
    Ethernet.Frame.blit_payload ~seed:i ~len:1500 buf ~pos:0;
    sink := !sink + Ethernet.Crc32.digest_sub buf ~pos:0 ~len:1500
  done;
  let allocated = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !sink);
  check_bool
    (Printf.sprintf "steady-state accessors allocated %.0f minor words"
       allocated)
    true
    (allocated < 256.)

(* A machine costs about one word per declared page (its packed state
   and refcount) plus one chunk pointer per 256 pages, not 4 KB of
   backing, a boxed record or a pre-filled free-list slot per page.
   729,088 pages is the 64-guest, two-NIC testbed. *)
let test_mem_footprint () =
  let pages = 729_088 in
  let words = Obj.reachable_words (Obj.repr (Memory.Phys_mem.create ~total_pages:pages ())) in
  check_bool
    (Printf.sprintf "%d words for %d pages" words pages)
    true
    (float_of_int words <= 1.1 *. float_of_int pages)

(* ---------- Dma_desc ---------- *)

let test_desc_roundtrip () =
  let m = mem () in
  let d = { Memory.Dma_desc.addr = 0x12340; len = 1500; flags = 3; seqno = 777 } in
  Memory.Dma_desc.write m ~at:512 d;
  check_bool "roundtrip" true (Memory.Dma_desc.equal d (Memory.Dma_desc.read m ~at:512));
  check_int "size" 16 Memory.Dma_desc.size_bytes

let test_desc_validation () =
  let m = mem () in
  let d = { Memory.Dma_desc.addr = 0; len = 0; flags = 0; seqno = 0 } in
  Alcotest.check_raises "seqno range" (Invalid_argument "Dma_desc.write: seqno out of range")
    (fun () -> Memory.Dma_desc.write m ~at:0 { d with Memory.Dma_desc.seqno = 65536 });
  Alcotest.check_raises "flags range" (Invalid_argument "Dma_desc.write: flags out of range")
    (fun () -> Memory.Dma_desc.write m ~at:0 { d with Memory.Dma_desc.flags = -1 })

let prop_desc_roundtrip =
  QCheck.Test.make ~name:"descriptor serialization roundtrips" ~count:200
    QCheck.(quad (int_range 0 0xFFFFF) (int_range 0 0xFFFF) (int_range 0 0xFFFF)
              (int_range 0 0xFFFF))
    (fun (addr, len, flags, seqno) ->
      let m = Memory.Phys_mem.create ~total_pages:4 () in
      let d = { Memory.Dma_desc.addr; len; flags; seqno } in
      Memory.Dma_desc.write m ~at:64 d;
      Memory.Dma_desc.equal d (Memory.Dma_desc.read m ~at:64))

(* ---------- Desc_layout ---------- *)

let test_layout_validation () =
  check_bool "default valid" true (Memory.Desc_layout.validate Memory.Desc_layout.default = Ok ());
  check_bool "compact valid" true (Memory.Desc_layout.validate Memory.Desc_layout.compact = Ok ());
  let overlap =
    { Memory.Desc_layout.default with Memory.Desc_layout.len_off = 4 }
  in
  check_bool "overlap rejected" true (Result.is_error (Memory.Desc_layout.validate overlap));
  let outside =
    { Memory.Desc_layout.compact with Memory.Desc_layout.seqno_off = 11 }
  in
  check_bool "out of bounds rejected" true
    (Result.is_error (Memory.Desc_layout.validate outside))

let test_layout_compact_roundtrip () =
  let m = mem () in
  let d = { Memory.Dma_desc.addr = 0xFFFF; len = 1500; flags = 7; seqno = 9 } in
  Memory.Desc_layout.write Memory.Desc_layout.compact m ~at:256 d;
  check_bool "roundtrip" true
    (Memory.Dma_desc.equal d (Memory.Desc_layout.read Memory.Desc_layout.compact m ~at:256))

let test_layout_limits () =
  let m = mem () in
  check_int "compact max addr" 0xFFFFFFFF (Memory.Desc_layout.max_addr Memory.Desc_layout.compact);
  check_int "compact max len" 0xFFFF (Memory.Desc_layout.max_len Memory.Desc_layout.compact);
  Alcotest.check_raises "addr too wide"
    (Invalid_argument "Desc_layout.write: address does not fit layout")
    (fun () ->
      Memory.Desc_layout.write Memory.Desc_layout.compact m ~at:0
        { Memory.Dma_desc.addr = 0x1_0000_0000; len = 0; flags = 0; seqno = 0 })

let prop_layout_roundtrip =
  QCheck.Test.make ~name:"any valid layout roundtrips descriptors" ~count:200
    QCheck.(
      pair
        (pair (int_range 4 8) (int_range 0 1))
        (quad (int_range 0 0xFFFF) (int_range 0 0xFFFF) (int_range 0 0xFFFF)
           (int_range 0 0xFFFF)))
    (fun ((addr_bytes, len_sel), (addr, len, flags, seqno)) ->
      let len_bytes = if len_sel = 0 then 2 else 4 in
      let layout =
        {
          Memory.Desc_layout.size = addr_bytes + len_bytes + 4;
          addr_off = 0;
          addr_bytes;
          len_off = addr_bytes;
          len_bytes;
          flags_off = addr_bytes + len_bytes;
          seqno_off = addr_bytes + len_bytes + 2;
        }
      in
      Memory.Desc_layout.validate layout = Ok ()
      &&
      let m = Memory.Phys_mem.create ~total_pages:4 () in
      let len = min len (Memory.Desc_layout.max_len layout) in
      let d = { Memory.Dma_desc.addr; len; flags; seqno } in
      Memory.Desc_layout.write layout m ~at:64 d;
      Memory.Dma_desc.equal d (Memory.Desc_layout.read layout m ~at:64))

(* ---------- Iommu ---------- *)

let test_iommu_grant_revoke () =
  let i = Memory.Iommu.create () in
  check_bool "default deny" false (Memory.Iommu.allowed i ~context:1 5);
  Memory.Iommu.grant i ~context:1 5;
  check_bool "granted" true (Memory.Iommu.allowed i ~context:1 5);
  check_bool "other context denied" false (Memory.Iommu.allowed i ~context:2 5);
  Memory.Iommu.revoke i ~context:1 5;
  check_bool "revoked" false (Memory.Iommu.allowed i ~context:1 5)

let test_iommu_revoke_context () =
  let i = Memory.Iommu.create () in
  Memory.Iommu.grant i ~context:1 5;
  Memory.Iommu.grant i ~context:1 6;
  Memory.Iommu.grant i ~context:2 5;
  Memory.Iommu.revoke_context i ~context:1;
  check_bool "ctx1 gone" false (Memory.Iommu.allowed i ~context:1 5);
  check_bool "ctx2 kept" true (Memory.Iommu.allowed i ~context:2 5);
  check_int "entries" 1 (Memory.Iommu.entries i)

let test_iommu_idempotent_grant () =
  let i = Memory.Iommu.create () in
  Memory.Iommu.grant i ~context:1 5;
  Memory.Iommu.grant i ~context:1 5;
  check_int "one entry" 1 (Memory.Iommu.entries i);
  Memory.Iommu.revoke i ~context:1 5;
  check_bool "fully revoked" false (Memory.Iommu.allowed i ~context:1 5)

let test_iommu_packed_keys () =
  (* Entries are keyed by a packed (context, pfn) int: swapped pairs must
     stay distinct, and out-of-range components must be rejected rather
     than silently aliasing another entry. *)
  let i = Memory.Iommu.create () in
  Memory.Iommu.grant i ~context:1 2;
  Memory.Iommu.grant i ~context:2 1;
  check_int "distinct entries" 2 (Memory.Iommu.entries i);
  check_bool "1/2 allowed" true (Memory.Iommu.allowed i ~context:1 2);
  check_bool "2/1 allowed" true (Memory.Iommu.allowed i ~context:2 1);
  check_bool "2/2 denied" false (Memory.Iommu.allowed i ~context:2 2);
  Memory.Iommu.revoke i ~context:1 2;
  check_bool "revoke is exact" true (Memory.Iommu.allowed i ~context:2 1);
  (* A pfn with bits above the packing width would alias context bits. *)
  Alcotest.check_raises "pfn out of range"
    (Invalid_argument "Iommu: pfn out of range")
    (fun () -> Memory.Iommu.grant i ~context:1 (1 lsl 32));
  Alcotest.check_raises "negative pfn"
    (Invalid_argument "Iommu: pfn out of range")
    (fun () -> Memory.Iommu.grant i ~context:1 (-1));
  Alcotest.check_raises "negative context"
    (Invalid_argument "Iommu: negative context")
    (fun () -> Memory.Iommu.grant i ~context:(-1) 4)

let test_iommu_revoke_context_many () =
  let i = Memory.Iommu.create () in
  for pfn = 0 to 99 do
    Memory.Iommu.grant i ~context:7 pfn;
    if pfn mod 2 = 0 then Memory.Iommu.grant i ~context:8 pfn
  done;
  check_int "populated" 150 (Memory.Iommu.entries i);
  Memory.Iommu.revoke_context i ~context:7;
  check_int "only ctx8 left" 50 (Memory.Iommu.entries i);
  check_bool "ctx7 denied" false (Memory.Iommu.allowed i ~context:7 42);
  check_bool "ctx8 kept" true (Memory.Iommu.allowed i ~context:8 42)

let qcheck = QCheck_alcotest.to_alcotest

let suite =
  [
    ( "memory.addr",
      [
        Alcotest.test_case "basics" `Quick test_addr_basics;
        Alcotest.test_case "pages spanned" `Quick test_addr_pages_spanned;
        qcheck prop_pages_spanned_count;
      ] );
    ( "memory.page",
      [
        Alcotest.test_case "lifecycle" `Quick test_page_lifecycle;
        Alcotest.test_case "quarantine" `Quick test_page_quarantine;
        Alcotest.test_case "transfer" `Quick test_page_transfer;
        Alcotest.test_case "invalid transitions" `Quick test_page_invalid_transitions;
        Alcotest.test_case "domain id range" `Quick test_page_domain_id_range;
        Alcotest.test_case "refcount overflow" `Quick test_page_refcount_overflow;
        qcheck prop_page_refcount_balance;
      ] );
    ( "memory.phys_mem",
      [
        Alcotest.test_case "alloc/free" `Quick test_mem_alloc_free;
        Alcotest.test_case "out of memory" `Quick test_mem_out_of_memory;
        Alcotest.test_case "alloc order" `Quick test_mem_alloc_order;
        Alcotest.test_case "quarantine blocks realloc" `Quick
          test_mem_quarantine_blocks_realloc;
        Alcotest.test_case "rw roundtrip" `Quick test_mem_rw_roundtrip;
        Alcotest.test_case "rw across pages" `Quick test_mem_rw_across_pages;
        Alcotest.test_case "zero fill" `Quick test_mem_zero_fill;
        Alcotest.test_case "realloc clears" `Quick test_mem_realloc_clears_contents;
        Alcotest.test_case "u16/u32/u64" `Quick test_mem_u_accessors;
        Alcotest.test_case "bounds" `Quick test_mem_bounds;
        Alcotest.test_case "transfer" `Quick test_mem_transfer;
        Alcotest.test_case "zero-alloc accessors" `Quick
          test_mem_zero_alloc_accessors;
        qcheck prop_mem_alloc_disjoint;
        qcheck prop_mem_model_equiv;
        qcheck prop_mem_read_into_equiv;
        qcheck prop_mem_uint_widths;
        qcheck prop_mem_zero_fill_after_reclaim;
        qcheck prop_mem_valid_range_consistent;
        qcheck prop_mem_ownership_model;
        qcheck prop_mem_ownership_model_chunks;
        Alcotest.test_case "footprint per declared page" `Quick
          test_mem_footprint;
      ] );
    ( "memory.dma_desc",
      [
        Alcotest.test_case "roundtrip" `Quick test_desc_roundtrip;
        Alcotest.test_case "validation" `Quick test_desc_validation;
        qcheck prop_desc_roundtrip;
      ] );
    ( "memory.desc_layout",
      [
        Alcotest.test_case "validation" `Quick test_layout_validation;
        Alcotest.test_case "compact roundtrip" `Quick test_layout_compact_roundtrip;
        Alcotest.test_case "limits" `Quick test_layout_limits;
        qcheck prop_layout_roundtrip;
      ] );
    ( "memory.iommu",
      [
        Alcotest.test_case "grant/revoke" `Quick test_iommu_grant_revoke;
        Alcotest.test_case "revoke context" `Quick test_iommu_revoke_context;
        Alcotest.test_case "idempotent grant" `Quick test_iommu_idempotent_grant;
        Alcotest.test_case "packed keys" `Quick test_iommu_packed_keys;
        Alcotest.test_case "revoke context many" `Quick
          test_iommu_revoke_context_many;
      ] );
  ]
