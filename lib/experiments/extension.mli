(** Extension experiments beyond the paper's evaluation.

    The paper measures throughput and CPU; two questions it leaves open
    are directly answerable with this simulator:

    - {b Latency}: CDNA removes the driver-domain store-and-forward hop
      and its scheduling delays from every packet. How much end-to-end
      latency does software I/O virtualization cost, and how does it grow
      with consolidation?
    - {b Bidirectional traffic}: the paper's tests are unidirectional.
      With both directions active the CPU costs of the two paths
      compound; does CDNA still hold its advantage?

    [cdna_sim extension] prints them all. *)

type latency_row = {
  l_label : string;
  l_guests : int;
  l_m : Run.measurement;
}

(** End-to-end packet latency (median / 99th percentile), Xen vs CDNA,
    transmit direction, at increasing guest counts. *)
val latency : ?quick:bool -> ?guest_counts:int list -> unit -> latency_row list

val print_latency : latency_row list -> unit

type bidir_row = { b_label : string; b_m : Run.measurement }

(** Simultaneous transmit + receive, single guest, 2 NICs. *)
val bidirectional : ?quick:bool -> unit -> bidir_row list

val print_bidirectional : bidir_row list -> unit

type weight_row = { w_weight : int; w_m : Run.measurement }

(** Driver-domain scheduler-weight sensitivity: does favouring the driver
    domain rescue Xen's receive throughput under consolidation? (16
    guests, receive.) A classic Xen-era tuning question the paper's
    testbed could not isolate. *)
val driver_weight : ?quick:bool -> ?weights:int list -> unit -> weight_row list

val print_driver_weight : weight_row list -> unit

type payload_row = {
  p_label : string;
  p_payload : int;
  p_m : Run.measurement;
}

(** Throughput vs. packet size (the paper fixes 1500-byte MTU packets):
    small packets shift the bottleneck entirely onto per-packet CPU costs,
    which is where CDNA's savings are. *)
val payload_sweep : ?quick:bool -> ?sizes:int list -> unit -> payload_row list

val print_payload_sweep : payload_row list -> unit

type tso_row = { t_label : string; t_gso : int; t_m : Run.measurement }

(** What if the RiceNIC had TCP segmentation offload? The paper (with
    Menon et al.) identifies TSO as the main software-only transmit
    optimization; CDNA-with-TSO composes both. Super-frames of N segments
    amortize every per-frame CPU cost while wire timing stays exact. Runs
    with 6 NICs so the CPU, not the wire, is the binding constraint. *)
val tso : ?quick:bool -> ?segment_counts:int list -> unit -> tso_row list

val print_tso : tso_row list -> unit

(** Run and print all extensions. *)
val print_all : ?quick:bool -> unit -> unit
