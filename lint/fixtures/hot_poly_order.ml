(* H1: polymorphic compare / min / max called in a hot body. The typed
   Int versions, and the polymorphic ones outside hot code, pass. *)
let[@cdna.hot] clamp_poly lo hi v = min hi (max lo v)
let[@cdna.hot] order_poly a b = compare a b
let[@cdna.hot] clamp_int lo hi v = Int.min hi (Int.max lo v)
let cold_clamp lo hi v = min hi (max lo v)
