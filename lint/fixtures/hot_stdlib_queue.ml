(* H2: Stdlib.Queue is barred everywhere, not only in hot bodies, and a
   module alias does not launder it. *)
let q : int Queue.t = Queue.create ()
let add x = Queue.push x q
let drain () = Stdlib.Queue.clear q

module Q = Queue

let head () = Q.peek q
