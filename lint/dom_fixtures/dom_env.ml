(* Substrate for the domain fixtures: engine and sweep stand-ins whose
   qualified names canonicalize like the real [Sim.Engine] scheduling
   primitives and [Experiments.Sweep.map], so closures handed to them
   count as LP-callback context. *)

module Engine = struct
  type t = Eng

  let create () = Eng
  let schedule (_ : t) (f : unit -> unit) = f ()
  let schedule_at (_ : t) (_ : int) (f : unit -> unit) = f ()
end

module Sweep = struct
  let map f xs = List.map f xs
end
