(* Events live in the heap as their bare callbacks — no per-event
   record. A boxed event record per schedule is the single largest cost
   of the event loop: every pending record stays live in the queue, so
   each one is promoted out of the minor heap and churns the write
   barrier. Instead, the heap key carries the time and the heap's FIFO
   seq carries the ordering. *)

type t = {
  mutable now : Time.t;
  mutable fired : int;
  queue : (unit -> unit) Heap.t;
}

(* Fills vacated heap slots; never popped. *)
let dummy_fn : unit -> unit = fun () -> ()

let create ?max_pending () =
  {
    now = Time.zero;
    fired = 0;
    queue = Heap.create ?max_entries:max_pending ~dummy:dummy_fn ();
  }

let[@cdna.hot] now t = t.now
let pending_count t = Heap.length t.queue

let[@cdna.hot] schedule_at t time fn =
  if Time.compare time t.now < 0 then
    invalid_arg "Engine.schedule_at: time in the past";
  Heap.push t.queue ~key:(Time.to_ns time) fn

let[@cdna.hot] schedule t ~delay fn =
  if Time.compare delay Time.zero < 0 then
    invalid_arg "Engine.schedule: negative delay";
  schedule_at t (Time.add t.now delay) fn

(* Dispatch is built on the heap's [_exn] accessors guarded by
   [is_empty], so firing an event allocates no option per iteration. *)
let[@inline] [@cdna.hot] fire t ~key =
  let fn = Heap.pop_exn t.queue in
  t.now <- Time.ns key;
  t.fired <- t.fired + 1;
  fn ()

let[@cdna.hot] step t =
  if Heap.is_empty t.queue then false
  else begin
    fire t ~key:(Heap.min_key_exn t.queue);
    true
  end

let[@cdna.hot] rec drain t ~until_ns =
  if not (Heap.is_empty t.queue) then begin
    let k = Heap.min_key_exn t.queue in
    if k <= until_ns then begin
      fire t ~key:k;
      drain t ~until_ns
    end
  end

let[@cdna.hot] run t ~until =
  drain t ~until_ns:(Time.to_ns until);
  t.now <- Time.max t.now until

let run_to_completion ?(limit = max_int) t =
  let rec loop n =
    if n >= limit then `Event_limit
    else if step t then loop (n + 1)
    else `Completed
  in
  loop 0

let register_metrics t m =
  Metrics.gauge m "engine.pending" (fun () -> pending_count t);
  Metrics.gauge m "engine.fired" (fun () -> t.fired)
