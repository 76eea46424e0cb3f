(** Metrics registry.

    A registry names the simulator's measurement instruments so a run can
    export one coherent snapshot. Series are keyed by a metric name plus
    labels (e.g. [("domain", "guest0")] or [("nic", "nic0"); ("ctx", "3")]);
    labels are sorted into a canonical [name{k=v,...}] key, so the same
    (name, labels) pair always resolves to the same series.

    Instruments come in two flavours:
    - owned: {!histogram} gets or creates a {!Stats.Histogram.t} that
      callers update directly;
    - pulled: {!gauge} / {!gauge_f} register a closure evaluated at
      snapshot time — the cheap way to expose a counter a component
      already maintains.

    {!to_json} is deterministic: series sorted by key, canonical float
    images (see {!Json}).

    A counter a gauge exports is read back from the registry, never from
    the component: {!sum} for integer series, {!snapshot} for the rest.
    [Run], the bench subjects and the tests all read this way. *)

type t

val create : unit -> t

(** Get or create the histogram for (name, labels). Raises
    [Invalid_argument] if the key exists with a different kind. *)
val histogram :
  t -> ?labels:(string * string) list -> string -> Stats.Histogram.t

(** Register (or replace) a pull gauge read at snapshot time. *)
val gauge : t -> ?labels:(string * string) list -> string -> (unit -> int) -> unit

val gauge_f :
  t -> ?labels:(string * string) list -> string -> (unit -> float) -> unit

(** Current values of every series, sorted by canonical key. Histograms
    render as
    [{count, mean, min, p50, p90, p99, max}]. *)
val snapshot : t -> (string * Json.t) list

(** [sum t name] totals the integer gauges named [name] across all their
    labels, or 0 if none is registered. A full canonical key
    ([name{k=v,...}]) reads that one series. Float gauges and histograms
    are skipped. Walks the table in place: no snapshot, no allocation
    per series. *)
val sum : t -> string -> int

val to_json : t -> Json.t
val to_string : t -> string
val size : t -> int
