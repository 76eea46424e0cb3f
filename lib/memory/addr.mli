(** Physical addresses and page frame numbers.

    The x86 DMA model of the paper works in host-physical addresses; the NIC
    and the hypervisor's protection logic both reason about 4 KB page
    frames. *)

(** Physical byte address. *)
type t = int

(** Page frame number. *)
type pfn = int

val page_size : int
val page_shift : int

val pfn_of : t -> pfn
val base_of_pfn : pfn -> t

(** Offset of an address within its page. *)
val offset : t -> int

(** [pages_spanned ~addr ~len] is the list of pfns touched by the byte range
    [\[addr, addr+len)]. Empty for [len = 0].
    @raise Invalid_argument if [len < 0]. *)
val pages_spanned : addr:t -> len:int -> pfn list

(** [page_count ~addr ~len] is the length of [pages_spanned ~addr ~len],
    whose pfns run up from [pfn_of addr], computed without the list.
    @raise Invalid_argument as [pages_spanned] does. *)
val page_count : addr:t -> len:int -> int

val pp : Format.formatter -> t -> unit
