(* A test: it names values, roots none. *)
let () =
  assert (Rlib.unused () = 4);
  assert (Rlib.create ~never:1 () = 1)
