(** Per-page metadata: ownership and reference counting.

    Equivalent of Xen's [page_info]: each physical page has an owning domain
    and a reference count. The CDNA hypervisor pins pages under outstanding
    DMA by holding a reference, which blocks reallocation (paper section
    3.3). Domains are identified by small integers, [-1] upwards (the
    hypervisor itself owns pages as [-1]).

    A [t] holds the metadata of every page of a machine in one flat
    [int array] indexed by pfn, each word packing the state code above a
    24-bit refcount, so it costs one word per page and no per-page
    allocation. This module is the single definition of the page state
    machine. *)

type domain_id = int

type state =
  | Free  (** On the allocator free list. *)
  | Owned of domain_id
  | Quarantined of domain_id
      (** Freed by its owner while references were outstanding; withheld
          from reallocation until the count drops to zero. The domain is
          the previous owner (for diagnostics). *)

type t

(** [create ~pages] is the metadata of pfns [\[0, pages)], all [Free]
    and unreferenced. *)
val create : pages:int -> t

val state : t -> Addr.pfn -> state
val refcount : t -> Addr.pfn -> int

(** [set_owned t pfn dom] transitions a [Free] page to [Owned dom].
    @raise Invalid_argument if the page is not free or [dom] lies outside
    [\[-1, 2^38 - 3\]] (what the packed state code holds). *)
val set_owned : t -> Addr.pfn -> domain_id -> unit

(** [release t pfn] frees an [Owned] page: to [Free] if unreferenced,
    else to [Quarantined].
    @raise Invalid_argument if the page is not owned. *)
val release : t -> Addr.pfn -> unit

(** [transfer t pfn dom] reassigns an [Owned], unreferenced page to [dom]
    (page flipping). Returns [Error `Pinned] if references are
    outstanding.
    @raise Invalid_argument if the page is not owned or [dom] is out of
    range as for {!set_owned}. *)
val transfer : t -> Addr.pfn -> domain_id -> (unit, [ `Pinned ]) result

(** [get_ref t pfn] increments the reference count.
    @raise Invalid_argument on a [Free] page, or if the count would
    exceed [2^24 - 1]. *)
val get_ref : t -> Addr.pfn -> unit

(** [put_ref t pfn] decrements the count. Returns [`Now_free] when this
    drops a quarantined page to zero references (the allocator must
    reclaim it), [`Still_held] otherwise.
    @raise Invalid_argument if the count is already zero. *)
val put_ref : t -> Addr.pfn -> [ `Now_free | `Still_held ]

val is_owned_by : t -> Addr.pfn -> domain_id -> bool
