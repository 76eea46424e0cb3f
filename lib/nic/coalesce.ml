type t = {
  engine : Sim.Engine.t;
  min_gap : Sim.Time.t;
  fire : unit -> unit;
  mutable last_fire : Sim.Time.t;
  mutable armed : bool;
  mutable requests : int;
  mutable fired : int;
  mutable suppressed : int;
  mutable ever_fired : bool;
}

let create engine ~min_gap ~fire =
  {
    engine;
    min_gap;
    fire;
    last_fire = Sim.Time.zero;
    armed = false;
    requests = 0;
    fired = 0;
    suppressed = 0;
    ever_fired = false;
  }

let deliver t =
  t.armed <- false;
  t.last_fire <- Sim.Engine.now t.engine;
  t.ever_fired <- true;
  t.fire ()

(* Every request is accounted exactly once, at request time: either it is
   merged into an already-pending delivery ([suppressed]) or it commits a
   delivery — immediate or scheduled, nothing cancels it ([fired]). The
   invariant [fired + suppressed = requests] therefore holds at every
   instant, not just when the engine drains. *)
let request t =
  t.requests <- t.requests + 1;
  if t.armed then t.suppressed <- t.suppressed + 1
  else begin
    let now = Sim.Engine.now t.engine in
    let allowed =
      if not t.ever_fired then now else Sim.Time.add t.last_fire t.min_gap
    in
    t.fired <- t.fired + 1;
    if Sim.Time.compare allowed now <= 0 then deliver t
    else begin
      t.armed <- true;
      Sim.Engine.schedule_at t.engine allowed (fun () -> deliver t)
    end
  end


let register_metrics t m ~labels =
  Sim.Metrics.gauge m ~labels "coalesce.requests" (fun () -> t.requests);
  Sim.Metrics.gauge m ~labels "coalesce.fired" (fun () -> t.fired);
  Sim.Metrics.gauge m ~labels "coalesce.suppressed" (fun () -> t.suppressed)
