(** Open-loop traffic generator over a {!Flow_table}.

    Flows arrive from a {!Pattern.Arrival} process independently of how
    the datapath keeps up (open loop), draw heavy-tailed sizes
    (elephants and mice) from a quantized inverse-CDF table, share an
    abstract bottleneck datapath round-robin (processor sharing), and
    record per-class completion latency into [Sim.Metrics] histograms.
    Supports SYN-flood (embryonic table-occupying flows with a fixed
    timeout) and flow-churn scenarios.

    The admission / service / completion paths are [\[@cdna.hot\]]:
    statically ([cdna_flow] A6) and dynamically (Gc.minor_words test)
    allocation-free, so 10^6 concurrent flows are bounded by the flat
    table footprint, not the GC. *)

(** Flow-size distribution, in packets. *)
type size_dist =
  | Pareto of { alpha : float; min_pkts : int; max_pkts : int }
      (** bounded Pareto: heavy tail, [alpha] typically 1.1–1.3 *)
  | Log_uniform of { min_pkts : int; max_pkts : int }

type config = {
  capacity : int;  (** max concurrent flows the table holds *)
  arrival : Pattern.Arrival.t;
  sizes : size_dist;
  base_service_ns : int;  (** per-packet CPU cost of the datapath *)
  wire_gap_ns : int;  (** per-packet wire time across all NICs *)
  touch_step_ns : int;
      (** flow-state touch penalty added per doubling of live flows
          above [touch_floor] (cache/TLB pressure of software paths);
          0 = per-context hardware state (CDNA) *)
  touch_floor : int;
  elephant_min_pkts : int;  (** flows at least this big are elephants *)
  syn_permille : int;  (** share of arrivals that are embryonic SYNs *)
  syn_timeout : Sim.Time.t;
  seed : int;
}

val default : config

type t

(** [create ?metrics engine cfg] preallocates the generator. With
    [?metrics] the per-class latency histograms are registered as
    [openloop.flow_latency_ns{class=mouse|elephant}]. *)
val create : ?metrics:Sim.Metrics.t -> Sim.Engine.t -> config -> t

(** [preload t ~flows] admits a standing population of [flows] flows at
    the current instant (the concurrency floor of a scale point). *)
val preload : t -> flows:int -> unit

(** [start t ~stop_at] begins the arrival process; no arrival is
    scheduled past [stop_at] (service still drains afterwards — bound
    the run with [Engine.run ~until]). *)
val start : t -> stop_at:Sim.Time.t -> unit

(** {2 Read-out} *)

val table : t -> Flow_table.t
val served_pkts : t -> int
val mice_latency : t -> Sim.Stats.Histogram.t
val elephant_latency : t -> Sim.Stats.Histogram.t

(** Exact mean of the quantized size table, packets — for sizing
    offered load against datapath capacity. *)
val mean_size_pkts : t -> float

(** Same, computed from a distribution spec without a generator. *)
val mean_size_of : size_dist -> float
