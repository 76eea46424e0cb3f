(* The library the reach fixtures analyse. *)

val direct : unit -> int
val via_record : unit -> int

type table = { run : unit -> int }

val table : table
val via_alias : unit -> int
val internal_only : unit -> int
val unused : unit -> int

module Key : sig
  type t = int

  val compare : t -> t -> int
end

val create :
  ?supplied:int -> ?never:int -> ?fwd:int -> ?quiet:int -> unit -> int

val wrap : ?fwd:int -> unit -> int
val wrap_quiet : ?quiet:int -> unit -> int
val via_let_module : unit -> int
