(** Shared I/O channel between netfront and netback.

    Models the pair of shared-memory rings a paravirtualized network
    interface uses (paper section 2.1): a transmit ring carrying
    (frame, page) requests from guest to driver domain, a receive ring
    carrying delivered (frame, page) pairs back, plus the response paths:
    transmit completions and replacement pages from the page-exchange
    protocol. Capacities model the fixed ring sizes; pushes fail when
    full, providing the back-pressure that bounds in-flight work. *)

type entry = { frame : Ethernet.Frame.t; pfn : Memory.Addr.pfn }
type t

val create : capacity:int -> t

(** {1 Guest -> driver (transmit requests)} *)

val tx_push : t -> entry -> bool
val tx_pop : t -> entry option

(** Next entry without consuming it. *)
val tx_peek : t -> entry option
val tx_used : t -> int
val tx_space : t -> int

(** {1 Driver -> guest (received packets)} *)

val rx_push : t -> entry -> bool
val rx_pop : t -> entry option
val rx_used : t -> int
val rx_space : t -> int

(** {1 Responses} *)

(** Transmit completions (netback -> netfront), with the replacement pages
    from the page exchange. *)
val push_tx_completion : t -> pages:Memory.Addr.pfn list -> count:int -> unit

(** Returns [(count, replacement pages)] accumulated since last taken. *)
val take_tx_completions : t -> int * Memory.Addr.pfn list

(** Completions accumulated and not yet taken. *)
val tx_completions_pending : t -> int

(** Pages returned by the guest to refill netback's exchange pool. *)
val push_returned_page : t -> Memory.Addr.pfn -> unit

val take_returned_pages : t -> Memory.Addr.pfn list
