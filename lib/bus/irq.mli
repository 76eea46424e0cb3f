(** Physical interrupt lines.

    Devices raise interrupts; the platform routes every line to a single
    handler — in a virtualized configuration, the hypervisor's interrupt
    dispatcher (paper section 2.1: "Xen receives all interrupts in the
    system"); in the native configuration, the OS's ISR. *)

type t

val create : unit -> t

(** [set_handler t f] installs the receiving handler. *)
val set_handler : t -> (unit -> unit) -> unit

(** [assert_line t] raises one interrupt (edge-triggered): the handler runs
    immediately in the caller's event context. No-op with a warning count
    if no handler is installed. *)
val assert_line : t -> unit

(** Number of interrupts delivered so far. *)
val count : t -> int

(** Interrupts raised while no handler was installed. *)
val dropped : t -> int
