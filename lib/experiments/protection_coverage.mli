(** Protection-coverage experiment: fault injection x protection mode.

    The paper argues (sections 3.3 and 5.3) that CDNA's software
    protection — hypercall validation, sequence-stamped descriptors,
    context revocation — contains a malicious or faulty guest driver as
    well as an IOMMU would, and that without either the NIC is an open
    DMA channel. This experiment tests that claim end to end: a rogue
    guest mounts each attack class through the strongest channel each
    mode leaves open (hypercalls under [Full], direct ring tampering
    under [Iommu], an unmodified native driver in malicious mode under
    [Disabled]), while injected bus and link faults exercise the
    recovery path on benign guests. Two benign guests carry paced
    traffic throughout; the untargeted ones must stay within 1% of a
    fault-free baseline run.

    All randomness is drawn from a seeded {!Sim.Fault_inject} instance:
    identical seeds reproduce identical reports. *)

type fault_class =
  | Out_of_sequence  (** Forged descriptor sequence number. *)
  | Foreign_page  (** Transmit descriptor aimed at another guest's page. *)
  | Over_length  (** Descriptor length running pages past the buffer. *)
  | Dma_access  (** Injected bus fault on a benign context (recovery path). *)
  | Link_drop  (** Probabilistic frame loss on the wire. *)
  | Link_corrupt  (** Probabilistic payload corruption on the wire. *)

type row = {
  r_mode : Cdna.Cdna_costs.protection;
  r_fault : fault_class;
  r_mechanism : string;  (** The mechanism on the hook for this cell. *)
  r_injected : int;  (** Faults/forgeries actually launched. *)
  r_detected : int;  (** Protection events attributable to them. *)
  r_leaked : int;  (** Rogue-sourced frames that reached the wire sink. *)
  r_contained : bool;
      (** Untargeted benign delivery within 1% of the baseline. *)
  r_victim : (int * int) option;
      (** (delivered, baseline) for the targeted benign flow, if any. *)
  r_others : int * int;  (** (delivered, baseline) for untargeted flows. *)
  r_recoveries : int;  (** Automatic context reassign + rebind completions. *)
}

(** Run the sweep. [quick] shrinks the per-cell traffic (60 frames per
    guest instead of 200). Deterministic for a given [seed]. *)
val sweep :
  ?quick:bool ->
  ?seed:int ->
  unit ->
  row list

val print : row list -> unit
