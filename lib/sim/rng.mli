(** Deterministic pseudo-random numbers (SplitMix64).

    Every stochastic choice in the simulator draws from an [Rng.t] so that a
    run is fully determined by its seed. SplitMix64 is small, fast, passes
    BigCrush, and supports cheap stream splitting for independent
    subsystems. *)

type t

val create : seed:int -> t

(** [split t] derives an independent generator; the parent advances. *)
val split : t -> t

val int64 : t -> int64

(** [int t bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** [float t bound] is uniform in [\[0, bound)]. *)
val float : t -> float -> float
