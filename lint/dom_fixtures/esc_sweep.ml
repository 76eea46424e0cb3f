(* Known-bad: a sweep point handed to [Sweep.map] runs on a worker
   domain, so the toplevel ref it bumps is shared between concurrent
   points (DM1). *)

let measured = ref 0

let measure x =
  incr measured;
  x * 2

let sweep xs = Dom_env.Sweep.map (fun x -> measure x) xs
