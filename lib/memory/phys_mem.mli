(** Simulated host physical memory.

    A flat physical address space of 4 KB pages with per-page ownership and
    reference counting ({!Page}), a free-list allocator, and real byte
    contents. Memory costs what a run touches, not what it declares: each
    page's 4 KB frame is allocated (zero-filled) on first touch and
    dropped again when the page is reclaimed, frames are indexed in
    256-page chunks allocated on first touch, and page metadata is one
    [int] per page: about one word per declared page in all. Guests in
    the experiments only touch network-buffer pages, so a 64-guest
    machine of ~3 GB commits a few hundred frames.

    This is the only record of page ownership: [Xen.Domain] reads its
    page set from here.

    DMA in the simulator goes through {!read}/{!write} (or the
    non-allocating {!read_into}/{!write_sub} used by the datapath), so a
    protection bug (or a deliberately disabled protection mode, as in the
    paper's Table 4 experiment) corrupts real simulated memory that tests
    can observe. *)

type t

(** [create ~total_pages ()] builds a memory of [total_pages] 4 KB pages,
    all initially free. *)
val create : total_pages:int -> unit -> t

val free_pages : t -> int

(** Page metadata. Here and in the allocation and reference-counting
    calls below, @raise Invalid_argument if [pfn] is out of range. *)

val state : t -> Addr.pfn -> Page.state
val refcount : t -> Addr.pfn -> int

(** {1 Allocation} *)

(** [alloc t ~owner ~count] takes [count] free pages for domain [owner]:
    reclaimed pages first, most recently reclaimed first, then
    never-allocated pages in ascending pfn order. Returns [Error `Out_of_memory] (allocating nothing) if not enough
    pages are free. *)
val alloc : t -> owner:Page.domain_id -> count:int -> (Addr.pfn list, [ `Out_of_memory ]) result

(** [free t pfn] releases a page back to the allocator. If the page has
    outstanding references (pinned by DMA), it is quarantined and returns
    to the free list only when the last reference is dropped.
    @raise Invalid_argument if the page is not owned. *)
val free : t -> Addr.pfn -> unit

(** [transfer t pfn ~to_] flips ownership of an owned, unreferenced page
    to another domain without passing through the free list.
    @raise Invalid_argument if the page is not owned. *)
val transfer : t -> Addr.pfn -> to_:Page.domain_id -> (unit, [ `Pinned ]) result

(** {1 Reference counting (DMA pinning)} *)

(** @raise Invalid_argument if the page is free or already holds
    [2^24 - 1] references. *)
val get_ref : t -> Addr.pfn -> unit

(** Decrement; reclaims quarantined pages that drop to zero. *)
val put_ref : t -> Addr.pfn -> unit

(** [owned_by t pfn dom] is true iff [pfn] is currently owned by [dom]. *)
val owned_by : t -> Addr.pfn -> Page.domain_id -> bool

(** [owned_pages t dom] lists the pages [dom] owns, in ascending order
    (one scan of the metadata). *)
val owned_pages : t -> Page.domain_id -> Addr.pfn list

(** {1 Byte access}

    Ranges may span pages. @raise Invalid_argument on out-of-range
    accesses or negative lengths. *)

(** [valid_range t ~addr ~len] is true iff [\[addr, addr+len)] lies
    entirely inside physical memory (and [len >= 0]). The one bounds
    predicate shared by {!check_range}-style validation here and the DMA
    engine's admission check, so the two cannot drift. *)
val valid_range : t -> addr:Addr.t -> len:int -> bool

val read : t -> addr:Addr.t -> len:int -> Bytes.t
val write : t -> addr:Addr.t -> Bytes.t -> unit

(** [read_into t ~addr ~len dst ~pos] copies [len] bytes starting at
    physical [addr] into [dst] at [pos] without allocating.
    @raise Invalid_argument if either range is out of bounds. *)
val read_into : t -> addr:Addr.t -> len:int -> Bytes.t -> pos:int -> unit

(** [write_sub t ~addr src ~pos ~len] writes [src[pos, pos+len)] to
    physical [addr] without allocating.
    @raise Invalid_argument if either range is out of bounds. *)
val write_sub : t -> addr:Addr.t -> Bytes.t -> pos:int -> len:int -> unit

(** Fixed-width little-endian accessors used by descriptor rings: one
    validated range check, then one frame lookup for a field inside a
    page (byte by byte only across a page boundary), no intermediate
    buffer. *)

(** Variable-width little-endian accessors ([bytes] in [1, 8]), for
    descriptor layouts with non-standard field widths. *)

val read_uint : t -> addr:Addr.t -> bytes:int -> int
val write_uint : t -> addr:Addr.t -> bytes:int -> int -> unit

val read_u16 : t -> addr:Addr.t -> int
val write_u16 : t -> addr:Addr.t -> int -> unit
val read_u32 : t -> addr:Addr.t -> int
val write_u32 : t -> addr:Addr.t -> int -> unit
val read_u64 : t -> addr:Addr.t -> int
val write_u64 : t -> addr:Addr.t -> int -> unit

(** Number of pages whose contents have been materialized (for tests). *)
val materialized_pages : t -> int
