(** Grant tables: page transfers between domains.

    Xen's netfront/netback move packet pages between guest and driver
    domain by {e page flipping} — remapping ownership rather than copying
    (paper section 2.1). [flip] validates ownership and transfers the page;
    the caller charges the hypercall cost.

    A page pinned by outstanding DMA (non-zero reference count) cannot be
    flipped, mirroring the reallocation constraint of section 3.3.

    Each hypervisor instance gets its own table ([create]); the flip
    counter lives in the table so independent testbeds — including ones
    running at the same time on different OS domains — share no grant
    state. *)

type error =
  [ `Not_owner  (** Source domain does not own the page. *)
  | `Pinned  (** Page has outstanding DMA references. *) ]

(** A grant table bound to one hypervisor instance. *)
type t

val create : Hypervisor.t -> t

(** [flip t ~src ~dst pfn] moves ownership of [pfn] from [src] to
    [dst]. *)
val flip :
  t -> src:Domain.t -> dst:Domain.t -> Memory.Addr.pfn -> (unit, error) result

(** Completed flips through this table (per-table diagnostic counter). *)
val flips : t -> int

val reset_flips : t -> unit
