(** Minimal JSON tree, printer and parser.

    Dependency-free substrate for the observability layer: Chrome
    [trace_event] files, metrics exports, and the tests that validate
    emitted artifacts round-trip. Printing is deterministic — object keys
    appear in construction order and floats have a canonical image — so
    identically seeded runs produce byte-identical files. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** Compact (single-line) rendering. *)
val to_string : t -> string

(** Parse a complete JSON document. Numbers without a fraction or exponent
    become [Int]; everything else numeric becomes [Float]. *)
val parse : string -> (t, string) result

(** [member key v] is the field [key] of object [v], if any. *)
val member : string -> t -> t option
