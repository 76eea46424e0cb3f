(** Plain-text table and CSV rendering for experiment results. *)

(** [render ~header rows] lays out an aligned fixed-width text table. *)
val render : header:string list -> string list list -> string

(** [print ~header rows] writes the table to stdout. *)
val print : header:string list -> string list list -> unit

val csv : header:string list -> string list list -> string

(** Formatting helpers. *)

val mbps : float -> string

val pct : float -> string

(** Pass/fail cell: ["yes"] / ["NO"] (failures stand out in a table of
    passes). *)
val verdict : bool -> string

(** ["got/expected"] fraction cell. *)
val ratio : int -> int -> string

(** Rate in events/second with thousands separators, as the paper prints
    interrupt rates ("13,659"). *)
val rate : float -> string

(** [ascii_chart ~x_label ~y_label ~series points] renders a simple text
    chart of one or more [(name, marker, ys)] series over shared x values
    — enough to eyeball the shape of the paper's figures in a terminal.
    The y axis starts at zero. *)
val ascii_chart :
  x_label:string ->
  y_label:string ->
  series:(string * char * float list) list ->
  xs:int list ->
  string

(** [versus_chart ~x_label points] charts CDNA ([#]) against Xen ([o])
    throughput in Mb/s from [(x, cdna_mbps, xen_mbps)] points; [""] when
    there are none. *)
val versus_chart : x_label:string -> (int * float * float) list -> string
