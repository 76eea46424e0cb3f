(* Substrate for the domain fixtures: an engine stand-in whose
   qualified names canonicalize like the real [Sim.Engine] scheduling
   primitives, so closures handed to them count as LP-callback
   context. *)

module Engine = struct
  type t = Eng

  let create () = Eng
  let schedule (_ : t) (f : unit -> unit) = f ()
  let schedule_at (_ : t) (_ : int) (f : unit -> unit) = f ()
end
