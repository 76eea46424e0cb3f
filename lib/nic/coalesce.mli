(** Interrupt coalescing.

    Rate-limits interrupt delivery the way NIC interrupt-throttling
    registers do: after firing, further requests within [min_gap] are
    merged into a single deferred firing. This is what keeps the paper's
    interrupt rates in the 5-14k/s range at 90-150k packets/s. *)

type t

(** [create engine ~min_gap ~fire] — [fire] is called for each delivered
    (possibly merged) interrupt. *)
val create : Sim.Engine.t -> min_gap:Sim.Time.t -> fire:(unit -> unit) -> t

(** Request an interrupt. Fires immediately if the gap has passed,
    otherwise schedules a merged firing at the earliest allowed time. *)
val request : t -> unit

(** Expose the counters as gauges under [labels]: [coalesce.requests]
    (total {!request} calls), [coalesce.fired] (interrupts delivered or
    committed: a scheduled firing counts as soon as it is committed, so it
    equals actual deliveries once the engine drains) and
    [coalesce.suppressed] (requests merged into an already-pending
    delivery). [requests = fired + suppressed] holds at every instant. *)
val register_metrics :
  t -> Sim.Metrics.t -> labels:(string * string) list -> unit
