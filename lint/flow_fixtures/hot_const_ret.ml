(* A hot entry reaching helpers that return structured constants:
   ocamlopt emits [Some 0] and [(1, 2)] statically, so nothing on this
   path allocates and A6 stays silent. *)

let classify x = if x > 0 then Some 0 else None

let origin () = (1, 2)

let[@cdna.hot] pump x =
  ignore (classify x);
  ignore (origin ())
