(** Measurement helpers for simulations.

    Log-bucketed histograms: plain mutable values read out at the end of
    (or at intervals during) a run. *)

(** [log2_floor v] is the index of the highest set bit of [v], and 0
    for [v <= 1]. Allocation-free ([\[@cdna.hot\]]) and a fixed six
    shift steps for any [v]. *)
val log2_floor : int -> int

(** {1 Histogram}

    Logarithmically bucketed histogram of non-negative integer samples
    (latencies in ns, batch sizes, ...). Log-linear buckets cover the full
    non-negative [int] range with ~3% relative error, so one histogram spans
    nanosecond RTTs through multi-second open-loop tail latencies. *)

module Histogram : sig
  type t

  val create : unit -> t

  (** Allocation-free ([\[@cdna.hot\]]): safe to call per packet on the
      steady-state datapath. *)
  val add : t -> int -> unit
  val count : t -> int
  val mean : t -> float
  val max_value : t -> int
  val min_value : t -> int

  (** [percentile t p] approximates the [p]-th percentile ([0 <= p <= 100])
      as the upper bound of the bucket containing it, clamped to
      [\[min_value, max_value\]]; [p <= 0.] is exactly [min_value]. 0 when
      empty. *)
  val percentile : t -> float -> int

  (** [quantiles_into t qs out] resolves all quantiles in [qs] (percent
      values, sorted ascending, e.g. [\[|50.; 99.; 99.9|\]]) in a single
      bucket scan, writing results into [out] (same length). Semantics per
      entry match {!percentile}.
      @raise Invalid_argument on length mismatch or unsorted [qs]. *)
  val quantiles_into : t -> float array -> int array -> unit

  (** Allocating convenience wrapper over {!quantiles_into}. *)
  val quantiles : t -> float array -> int array

  val reset : t -> unit
end
