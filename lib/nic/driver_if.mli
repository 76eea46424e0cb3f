(** Driver-facing hardware interface.

    The synchronous operations a device driver performs on its NIC (or, for
    CDNA, on its private hardware context): ring setup, doorbell writes,
    and completion retrieval. Produced by {!Conventional} and, for one
    context of the CDNA NIC, by {!Firmware.driver_if}; consumed by the
    drivers in the [guestos] library.

    These closures only mutate simulated hardware state; the CPU cost of
    invoking them is accounted by the calling driver's work items. *)

type t = {
  desc_layout : Memory.Desc_layout.t;
      (** The device's negotiated descriptor format; the driver (or the
          hypervisor, for CDNA) must serialize descriptors through it. *)
  setup_tx_ring : Ring.t -> unit;
  setup_rx_ring : Ring.t -> unit;
  setup_status : Memory.Addr.t -> unit;
  tx_doorbell : int -> unit;  (** Publish free-running tx producer index. *)
  rx_doorbell : int -> unit;
  stage_tx_meta : Ethernet.Frame.t -> unit;
      (** Out-of-band packet metadata, one per tx descriptor, ring order. *)
  take_tx_completions : unit -> int;
  take_rx_completions : max:int -> (int * Ethernet.Frame.t) list;
  rx_completions_pending : unit -> int;
}
