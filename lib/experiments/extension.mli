(** Extension experiments beyond the paper's evaluation.

    The paper measures throughput and CPU; questions it leaves open are
    directly answerable with this simulator:

    - {b Latency}: CDNA removes the driver-domain store-and-forward hop
      and its scheduling delays from every packet. How much end-to-end
      latency (median / 99th percentile) does software I/O virtualization
      cost, and how does it grow with consolidation?
    - {b Bidirectional traffic}: the paper's tests are unidirectional.
      With both directions active the CPU costs of the two paths
      compound; does CDNA still hold its advantage?
    - {b Driver-domain weight}: does favouring the driver domain in the
      credit scheduler rescue Xen's receive throughput at 16 guests? A
      classic Xen-era tuning question the paper's testbed could not
      isolate.
    - {b Packet size}: the paper fixes 1500-byte MTU packets; small
      packets shift the bottleneck entirely onto per-packet CPU costs,
      which is where CDNA's savings are.
    - {b TSO}: the paper (with Menon et al.) identifies TCP segmentation
      offload as the main software-only transmit optimization; CDNA with
      TSO composes both. Super-frames of N segments amortize every
      per-frame CPU cost while wire timing stays exact; 6 NICs make the
      CPU, not the wire, the binding constraint.

    [cdna_sim extension] prints them all. *)

(** Latency, bidirectional, driver weight, packet size and TSO, in that
    order. *)
val all : Sweep.t list
