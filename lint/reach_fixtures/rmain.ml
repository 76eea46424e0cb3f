(* The entry executable: each reach edge kind once. *)
module L = Rlib
module KS = Set.Make (Rlib.Key)

let () =
  ignore (Rlib.direct ());
  ignore (Rlib.table.run ());
  ignore (L.via_alias ());
  ignore
    (let module D = Rlib in
     D.via_let_module ());
  ignore (KS.cardinal KS.empty);
  ignore (Rlib.create ~supplied:1 ());
  ignore (Rlib.wrap ~fwd:2 ());
  ignore (Rlib.wrap_quiet ())
