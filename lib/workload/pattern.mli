(** Traffic patterns.

    The direction enum consumed throughout the experiment harness, plus
    the arrival-process machinery shared by the open-loop generator
    ({!Open_loop}) and the closed-loop {!Bench_program} (whose refill
    pacing is a {!Throttle}). *)

(** {1 Direction} *)

type t =
  | Tx  (** Guests transmit; the peer sinks and acknowledges. *)
  | Rx  (** The peer transmits; guests sink and acknowledge. *)
  | Bidirectional

val guest_transmits : t -> bool
val guest_receives : t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Native-int xorshift step (never returns 0): the allocation-free
    steady-state sampling PRNG. Seed once from [Sim.Rng] on the cold
    path, then advance this per draw. [\[@cdna.hot\]]. *)
val xorshift : int -> int

(** {1 Rate throttle}

    "At most one X per interval" pacing, as a value: used by
    {!Bench_program} to batch window refills the way a loaded event
    loop would. *)

module Throttle : sig
  type t

  val create : interval:Sim.Time.t -> t

  (** Delay until the next action is allowed; zero when {!ready}. *)
  val wait : t -> now:Sim.Time.t -> Sim.Time.t

  val ready : t -> now:Sim.Time.t -> bool

  (** Record that the action ran at [now]. *)
  val mark : t -> now:Sim.Time.t -> unit

end

(** {1 Arrival processes}

    Flow inter-arrival processes for open-loop load. A {!Arrival.t}
    spec is compiled once (cold, floats allowed) into a {!Arrival.source}
    whose per-arrival {!Arrival.next_gap} is allocation-free integer
    work from a quantized inverse-CDF table. *)

module Arrival : sig
  type nonrec t =
    | Constant of { gap : Sim.Time.t }  (** fixed inter-arrival gap *)
    | Poisson of { mean_gap : Sim.Time.t }
        (** exponential gaps, quantized to a 1024-entry table *)
    | On_off of { on : Sim.Time.t; off : Sim.Time.t; gap : Sim.Time.t }
        (** bursts: [on/gap] arrivals spaced [gap], then silence [off] *)
    | Incast of { fan_in : int; period : Sim.Time.t }
        (** [fan_in] simultaneous arrivals every [period] *)

  type source

  (** Compile [t]; [seed] decorrelates concurrent sources.
      @raise Invalid_argument on non-positive gaps or [fan_in < 1]. *)
  val source : ?seed:int -> t -> source

  (** Next inter-arrival gap in ns (0 inside an incast fan-in).
      [\[@cdna.hot\]]: one per admitted flow, allocation-free. *)
  val next_gap : source -> int

  (** Long-run mean gap of the compiled source in ns (duty-cycle and
      fan-in aware) — for sizing offered load. *)
  val mean_gap_ns : source -> float

end
