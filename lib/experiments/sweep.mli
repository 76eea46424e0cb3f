(** One paper output: a titled list of configurations and how their
    measurements render.

    Tables 1-4, Figures 3-4, the [scale-guests] grid and the extension
    experiments are each one value of {!t}; {!run} is the only path from
    them (and from {!Claims.verify}) to {!Run}. *)

type t = {
  title : string;  (** Printed, then a newline, above the text table. *)
  configs : Config.t list;  (** Measured by {!run}. *)
  header : string list;
  rows : Run.measurement list -> string list list;
      (** Text-table rows from the measurements of [configs], in order. *)
  footer : Run.measurement list -> string;
      (** Printed after the text table (notes, charts); [""] for none. *)
  csv : (string list * (Run.measurement list -> string list list)) option;
      (** CSV header and rows, for the outputs that have a CSV form. *)
}

(** [map f xs] is [List.map f xs], computed on up to
    [Domain.recommended_domain_count ()] domains: the caller and
    [min (length xs) (recommended_domain_count ()) - 1] spawned workers
    take items off one shared index, and results come back in input
    order. Every domain is joined before [map] returns or raises; if [f]
    raises, the exception (and backtrace) of the lowest failing index is
    re-raised. While {!Sim.Trace.enabled} holds, [map] runs in order on
    the caller, whose domain-local sink would miss workers' records.

    [f] must not share mutable state between items: each call builds and
    runs its own testbed. *)
val map : ('a -> 'b) -> 'a list -> 'b list

(** [run cfgs] measures each configuration on a fresh testbed
    ({!Run.run}) through {!map}; [quick] shortens every run. Results are
    in the order of [cfgs] and independent of how many domains ran. *)
val run : ?quick:bool -> Config.t list -> Run.measurement list

(** Title, table and footer of [t] over its measurements. *)
val render : t -> Run.measurement list -> string

(** The CSV form of [t] over its measurements.
    @raise Invalid_argument if [t] has no CSV form. *)
val render_csv : t -> Run.measurement list -> string

(** Run and print each output ({!render}, or {!render_csv} with [csv]),
    with a blank line between outputs. *)
val print : ?quick:bool -> ?csv:bool -> t list -> unit
