(* A4 past a defaulted optional: the arity counts the parameters after
   [?k] too, so applying [scaled] to one of its two positional
   arguments builds a closure, while the full application does not. *)
let[@cdna.hot] scaled ?(k = 2) a b = (k * a) + b
let[@cdna.hot] stage a = scaled a
let[@cdna.hot] full a = scaled a 1
