(** Execute one experiment and collect the paper's metrics.

    A run builds a {!Testbed}, lets it warm up (windows fill, schedulers
    settle), resets all counters, then measures for the configured
    duration: goodput per direction, the Xenoprof-style execution profile,
    and virtual/physical interrupt rates. *)

type measurement = {
  config : Config.t;
  tx_mbps : float;  (** Aggregate guest-transmit goodput (payload bits). *)
  rx_mbps : float;  (** Aggregate guest-receive goodput. *)
  profile : Host.Profile.report;
  driver_virq_per_sec : float;  (** Virtual interrupts into the driver domain. *)
  guest_virq_per_sec : float;  (** Virtual interrupts into all guests. *)
  phys_irq_per_sec : float;
  rx_drops : int;  (** NIC buffer overflow drops during measurement. *)
  faults : int;  (** NIC protection faults during measurement. *)
  integrity_failures : int;  (** Payload corruption detections. *)
  latency_p50_us : float;  (** Median end-to-end packet latency. *)
  latency_p99_us : float;
  fairness : float;
      (** Jain's fairness index over per-connection goodput in the
          measured direction (1.0 = perfectly balanced). The paper's
          benchmark "balances the bandwidth across all connections to
          ensure fairness"; this checks the reproduction does too. *)
  ctx_swaps : int;
      (** CDNA hardware-context save/restores during measurement (0 for
          other systems and whenever every guest holds a context). *)
  events_fired : int;  (** Simulation events (diagnostic). *)
}

(** Primary throughput of the run's traffic pattern (tx for Tx, rx for Rx,
    sum for bidirectional). *)
val primary_mbps : measurement -> float

(** L3/L4 header bytes excluded from goodput accounting (IP + TCP +
    timestamps), shared with the open-loop {!Flows} experiment. *)
val l3_header_bytes : int

(** {2 Measurement phases}

    {!run} is [build -> warm up -> reset -> measure -> collect]; the
    phases are exposed so a driver that times each phase separately
    (perfbench's end-to-end harness) reuses the exact same accounting
    and stays measurement-compatible with {!run}. *)

(** Counter readings taken at the end of warm-up, subtracted by
    {!collect}. *)
type baselines

(** Zero every counter the measurement reads and snapshot the rest. Call
    with the testbed's engine standing exactly at [cfg.warmup]. *)
val reset_after_warmup : Config.t -> Testbed.t -> baselines

(** Assemble the measurement after the engine has reached
    [cfg.warmup + cfg.duration]. *)
val collect : Config.t -> Testbed.t -> baselines -> measurement

(** [run cfg] builds and measures. [quick] shrinks warm-up/measurement to
    ~1/4 duration for tests. *)
val run : ?quick:bool -> Config.t -> measurement

(** Like {!run}, but also returns the testbed so the caller can read its
    metrics registry or inspect component state after measurement. *)
val run_tb : ?quick:bool -> Config.t -> measurement * Testbed.t

(** Like {!run_tb}, with every trace event of the run recorded (the
    recorder replaces any installed sink; none is left installed). The
    recorder names its processes after the testbed: pid 0 is
    ["hypervisor"], and each domain's pid is its id + 1. *)
val run_traced :
  ?quick:bool -> Config.t -> measurement * Testbed.t * Sim.Trace.Recorder.t

val pp : Format.formatter -> measurement -> unit
