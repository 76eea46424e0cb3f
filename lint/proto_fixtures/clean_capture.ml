(* Clean: a fresh mapping handed straight to a program function that
   captures it in the closures of the record it returns. The callee's
   summary says that parameter escapes, so ownership moves into the
   record at the call site and the caller leaks nothing — whether the
   parameter is labelled, positional, or renamed before the capture. *)

type port = { read : int -> int }

let port_of ~mapping =
  let read offset = Proto_env.Mmio.read32 mapping ~offset in
  { read }

let port_of_positional mapping = { read = (fun offset -> Proto_env.Mmio.read32 mapping ~offset) }

let port_of_alias ~mapping =
  let m = mapping in
  { read = (fun offset -> Proto_env.Mmio.read32 m ~offset) }

let open_port r = port_of ~mapping:(Proto_env.Mmio.map r)
let open_port_positional r = port_of_positional (Proto_env.Mmio.map r)
let open_port_alias r = port_of_alias ~mapping:(Proto_env.Mmio.map r)
