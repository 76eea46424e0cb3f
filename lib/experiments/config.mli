(** Experiment configuration.

    One value of {!t} describes a complete testbed assembly and workload —
    everything needed to reproduce one cell of the paper's tables or one
    point of its figures. *)

type system =
  | Native  (** Bare-metal Linux baseline (Table 1). *)
  | Xen_sw  (** Xen software I/O virtualization (driver domain + bridge). *)
  | Cdna_sys  (** Concurrent direct network access. *)

type nic_kind = Intel | Ricenic

type t = {
  system : system;
  nic : nic_kind;  (** NIC used by Native/Xen_sw; CDNA always uses RiceNIC. *)
  nics : int;  (** Physical NICs (2 in Tables 2-4, 6 in Table 1). *)
  guests : int;
  cpus : int;
      (** Host CPUs, each with its own credit runqueue (1 = the paper's
          single-CPU testbed, event-for-event identical to the historical
          scheduler). *)
  driver_weight : int;
      (** Credit-scheduler weight of the driver domain (guests use 256).
          The paper-era tuning question: should dom0 be favoured? *)
  pattern : Workload.Pattern.t;
  conns_per_guest_per_nic : int;
  window : int;  (** Per-connection packets in flight. *)
  payload : int;  (** Payload bytes per packet (1500 = MTU-sized TCP). *)
  gso_segments : int;
      (** TSO/GSO: MTU segments per super-frame handed to the stack
          (1 = off). Requires a segmenting NIC; see the TSO extension. *)
  protection : Cdna.Cdna_costs.protection;  (** CDNA only. *)
  materialize : bool;  (** Move and verify real payload bytes. *)
  seed : int;
  warmup : Sim.Time.t;
  duration : Sim.Time.t;  (** Measured window after warm-up. *)
  slice : Sim.Time.t option;
      (** Credit-scheduler stickiness slice override ([None] = the
          scheduler's 1 ms default). Small slices raise context-switch —
          and, with paged CDNA contexts, context-swap — rates. *)
}

(** Single guest, 2 NICs, transmit, full protection, 200 ms measured. *)
val default : t

(** The paper's head-to-head pairing, applied to a base configuration:
    Xen software I/O on the Intel NIC against CDNA on the RiceNIC. *)
val xen_intel : t -> t

val cdna_ricenic : t -> t

(** [host cfg i] is host [i]'s configuration in a run of independent
    replica hosts: [cfg] with seed [cfg.seed + 7919 * i], so replicas
    differ but a run is reproducible. [host cfg 0] is [cfg]. *)
val host : t -> int -> t

val describe : t -> string
val system_name : system -> string
val nic_name : nic_kind -> string
