(** The [cdna_sim scale] experiment: open-loop flow scaling.

    Sweeps the standing concurrent-flow population 10^3 -> 10^6 for the
    Xen software path vs CDNA, driving {!Workload.Open_loop} with
    per-packet datapath costs derived from {!Cost_model}. Both systems
    see identical offered load (~1.05x CDNA's service capacity), so the
    software path's collapse under production-shaped traffic — falling
    throughput as live-flow state outgrows the cache, pinned occupancy,
    rejected admissions, exploding tails — is directly visible next to
    CDNA's wire-limited flat line. *)

type scenario =
  | Normal  (** Poisson arrivals, bounded-Pareto elephants-and-mice *)
  | Syn_flood  (** 8x arrivals, half embryonic SYNs with a fixed timeout *)
  | Churn  (** tiny flows in on/off bursts: insert/remove pressure *)
  | Incast  (** 64-way synchronized fan-in arrivals *)

val scenario_to_string : scenario -> string
val scenario_of_string : string -> scenario option

(** Per-system read-out of one point. Quantile arrays are
    p50/p99/p99.9 completion latency in ns. *)
type side = {
  mbps : float;
  served_pkts : int;
  completed : int;
  rejected : int;
  expired : int;
  peak_live : int;
  live_end : int;
  mouse_n : int;
  mouse_q : int array;
  eleph_n : int;
  eleph_q : int array;
  metrics_json : string;
      (** full [Sim.Metrics] snapshot of the point — the determinism
          tests compare this byte-for-byte across same-seed reruns *)
}

type point = { flows : int; scenario : scenario; xen : side; cdna : side }

val default_flow_counts : int list

(** [measure ?quick ~flows ~scenario ~seed system] runs one system at
    one concurrency point. [quick] quarters the window. *)
val measure :
  ?quick:bool ->
  flows:int ->
  scenario:scenario ->
  seed:int ->
  Config.system ->
  side

(** [point ~flows ()] measures both systems at [flows] standing flows.
    Zero is a valid point (churn alone).
    @raise Invalid_argument if [flows < 0]. *)
val point :
  ?quick:bool ->
  ?scenario:scenario ->
  ?seed:int ->
  flows:int ->
  unit ->
  point

val sweep :
  ?quick:bool ->
  ?scenario:scenario ->
  ?seed:int ->
  ?flow_counts:int list ->
  unit ->
  point list

val print_table : point list -> unit
val csv : point list -> string
val chart : point list -> string
