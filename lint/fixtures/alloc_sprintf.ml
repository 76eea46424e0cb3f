(* A3: Printf.sprintf allocates its result in a hot body; only the
   arguments of an error exit (raise, invalid_arg, ...) leave the
   steady-state path. Expected: one A3, on [label]. *)
let[@cdna.hot] label n = Printf.sprintf "port %d" n

let[@cdna.hot] check n =
  if n < 0 then invalid_arg (Printf.sprintf "bad port %d" n)
