let internal_only () = 1
(* The local [unused] shadows nothing: it is no edge to [unused] below. *)
let direct () =
  let unused = 1 in
  internal_only () + unused
let via_record () = 2

type table = { run : unit -> int }

let table = { run = (fun () -> via_record ()) }
let via_alias () = 3
let dead_helper () = 4
let unused () = dead_helper ()

module Key = struct
  type t = int

  let compare = Int.compare
end

let create ?(supplied = 0) ?(never = 0) ?(fwd = 0) ?(quiet = 0) () =
  supplied + never + fwd + quiet

let wrap ?fwd () = create ?fwd ()
let wrap_quiet ?quiet () = create ?quiet ()
let via_let_module () = 5
