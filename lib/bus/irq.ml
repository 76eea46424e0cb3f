type t = {
  mutable handler : (unit -> unit) option;
  mutable count : int;
  mutable dropped : int;
}

let create () = { handler = None; count = 0; dropped = 0 }
let set_handler t f = t.handler <- Some f

let assert_line t =
  match t.handler with
  | Some f ->
      t.count <- t.count + 1;
      f ()
  | None -> t.dropped <- t.dropped + 1

let count t = t.count
let dropped t = t.dropped
