(** NIC firmware: mailbox event decoding.

    Models the RiceNIC embedded-processor firmware of paper section 4: PIO
    writes into a context's mailbox partition raise hardware events; the
    firmware loop decodes the two-level bit-vector hierarchy (which
    context, which mailbox), reads the written value from SRAM, and acts on
    the datapath — setting up rings or publishing producer indices. Each
    event costs [process_cost] of NIC-processor time; events are cleared
    per context as they are handled.

    Mailbox word assignments (driver-side protocol): ring geometry must be
    written before the base address, which commits the ring. *)

type t

(** [create engine ~dp ~process_cost ()] builds the firmware and its
    mailbox SRAM (one partition per datapath context). *)
val create : Sim.Engine.t -> dp:Dp.t -> process_cost:Sim.Time.t -> unit -> t

val mailbox : t -> Mailbox.t

(** The MMIO region of one context's partition, for mapping into the
    owning domain. *)
val region : t -> ctx:int -> Bus.Mmio.region

(** [driver_if t ~ctx ~mapping] is the driver-facing interface of context
    [ctx], performing its hardware writes as PIO through [mapping] (so a
    revoked mapping faults, and every write goes through the mailbox event
    machinery). *)
val driver_if : t -> ctx:int -> mapping:Bus.Mmio.mapping -> Driver_if.t

(** Opaque image of the firmware's per-context scratch (last ring geometry
    written), for hypervisor-mediated context paging. *)
type saved_scratch

(** [save_scratch t ~ctx] copies the context's scratch into a save area and
    zeroes it, so the slot's next occupant starts from reset state. *)
val save_scratch : t -> ctx:int -> saved_scratch

val restore_scratch : t -> ctx:int -> saved_scratch -> unit

(** Mailbox events processed so far. *)
val events_processed : t -> int
