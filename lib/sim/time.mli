(** Simulated time.

    Time is an absolute count of nanoseconds since the start of the
    simulation, represented as a native [int] (63 bits on 64-bit platforms,
    i.e. ~292 simulated years — far beyond any experiment here). Durations
    use the same representation. *)

type t = int

val zero : t

(** {1 Constructors} *)

val ns : int -> t
val us : int -> t
val ms : int -> t
val sec : int -> t

(** [of_us_f u] converts a duration in (fractional) microseconds. Raises
    [Invalid_argument] on negative or non-finite input. *)
val of_us_f : float -> t

(** {1 Conversions} *)

val to_ns : t -> int
val to_sec_f : t -> float

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t

(** [diff a b] is [a - b], clamped at zero. *)
val diff : t -> t -> t

(** [mul_int d n] scales duration [d] by the non-negative integer [n]. *)
val mul_int : t -> int -> t

(** [div_int d n] divides duration [d] by positive [n]. *)
val div_int : t -> int -> t

val compare : t -> t -> int
val max : t -> t -> t

(** {1 Derived quantities} *)

(** [bits_time ~bits ~rate_bps] is the time to serialize [bits] bits at
    [rate_bps] bits per second. Raises [Invalid_argument] if [rate_bps <= 0]
    or [bits < 0]. *)
val bits_time : bits:int -> rate_bps:int -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
