(** Deterministic, seed-driven fault injection.

    A fault-injection harness for stressing the protection machinery: the
    experiment arms {e plans} at named {e sites} (one site per hook point
    — a DMA engine, a link direction, a driver), and the instrumented
    subsystem asks {!fire} on every candidate event. Plans select events
    by DMA context id and address range and decide via their trigger
    whether the event is perturbed.

    The decision sequence is a pure function of the creation seed, the
    arming order and the (deterministic) event sequence of the
    simulation: every probabilistic plan draws from its own split-off
    {!Rng.t} stream, so plans never perturb one another's decisions and
    identical seeds reproduce identical injections. This module knows
    nothing about buses or frames — higher layers install closures that
    translate a positive {!fire} into their own fault (see
    [Bus.Dma_engine.set_fault_injector], [Ethernet.Link.set_tamper]). *)

type t

type trigger =
  | Always  (** every matching event *)
  | One_shot  (** exactly the first matching event *)
  | Nth of int  (** exactly the [n]th matching event (1-based) *)
  | Every_nth of int  (** every [n]th matching event *)
  | Probability of float  (** each matching event independently, seeded *)

type plan

(** [plan ?ctx ?addr trigger] selects events whose DMA context id falls in
    the inclusive [ctx] range and whose address falls in the inclusive
    [addr] range (omitted filter = match all; events fired without the
    corresponding attribute only match plans without that filter).
    @raise Invalid_argument on an empty range, [Nth]/[Every_nth] with
    [n < 1], or a probability outside [0, 1]. *)
val plan :
  ?ctx:int * int -> ?addr:int * int -> trigger -> plan

val create : seed:int -> t

(** [arm t ~site p] adds a plan at [site]. Plans at a site are consulted
    in arming order; each gets an independent random stream split off the
    master seed at arming time. *)
val arm : t -> site:string -> plan -> unit

(** [fire t ~site ?ctx ?addr ()] reports one candidate event and returns
    true when any armed plan decides to inject. A site with no armed
    plans always answers false (and costs one hash lookup). *)
val fire : t -> site:string -> ?ctx:int -> ?addr:int -> unit -> bool

(** Events seen / injections decided at a site so far. *)
val observed : t -> site:string -> int

val injected : t -> site:string -> int

(** Total injections across all sites. *)
val total_injected : t -> int
