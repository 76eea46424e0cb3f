(** Static NIC configuration. *)

type t = {
  name : string;
  tx_buffer_bytes : int;  (** On-NIC transmit packet buffering, shared. *)
  rx_buffer_bytes : int;  (** On-NIC receive packet buffering, shared. *)
  firmware_delay : Sim.Time.t option;
      (** Processing delay between a mailbox event and the firmware acting
          on it (RiceNIC: embedded PowerPC dispatch). [None] for a NIC
          with no mailbox firmware, whose driver writes registers. *)
  intr_min_gap : Sim.Time.t;
      (** Interrupt coalescing: minimum gap between physical interrupts. *)
  seqno_checking : bool;
      (** CDNA firmware validates descriptor sequence numbers. *)
  desc_layout : Memory.Desc_layout.t;
      (** The device's preferred DMA-descriptor format (paper section 3.4);
          drivers and the hypervisor serialize descriptors through it. *)
  materialize_payloads : bool;
      (** Move real payload bytes over DMA (integrity testing) rather than
          timing-only transfers (fast benchmarking). *)
}

(** RiceNIC defaults (128 KB tx + 128 KB rx per context in the paper; the
    shared pools here are sized for 32 contexts). *)
val ricenic : t

(** Intel Pro/1000-like defaults: 48 KB fifos, no mailbox firmware, no
    CDNA features. *)
val intel : t

val pp : Format.formatter -> t -> unit
