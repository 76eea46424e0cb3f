type work = { cost : Sim.Time.t; category : Category.t; fn : unit -> unit }

type entity = {
  id : int;
  name : string;
  weight : int;
  domain : Category.domain_id;
  queue : work Sim.Fifo.t;
  (* Entitled runtime in integer nanoseconds. Fixed-point (not float)
     so credit arithmetic is exact: runqueue migration must not be able
     to introduce float-associativity drift into a schedule. *)
  mutable credits : int;
  mutable boosted : bool;
  mutable runtime : Sim.Time.t;
  mutable cpu : int; (* index of the runqueue the entity lives on *)
  (* One-shot extra dispatch cost after a cross-CPU migration (IPI +
     cold-cache refill), consumed by the next dispatch. *)
  mutable migrate_penalty : Sim.Time.t;
}

(* One per-CPU runqueue. With [cpus = 1] the scheduler degenerates to
   the original single-CPU behaviour, event for event. *)
type rq = {
  cpu_id : int;
  irq_queue : work Sim.Fifo.t;
  mutable resident : entity list; (* arrival order on this runqueue *)
  boost_fifo : entity Sim.Fifo.t;
  mutable current : entity; (* the scheduler's [no_entity] when none *)
  mutable slice_used : Sim.Time.t;
  mutable busy : bool;
  (* The one item in flight while [busy], read back by [complete]: its
     entity ([no_entity] for IRQ work), dispatch time and switch cost. *)
  mutable run_work : work;
  mutable run_entity : entity;
  mutable run_start : Sim.Time.t;
  mutable run_switch : Sim.Time.t;
  (* [complete t rq], built once in [create] and scheduled per item. *)
  mutable complete : unit -> unit;
  mutable total_busy : Sim.Time.t;
  mutable switches : int;
}

type t = {
  engine : Sim.Engine.t;
  profile : Profile.t;
  ctx_switch_cost : Sim.Time.t;
  slice : Sim.Time.t;
  migration_cost : Sim.Time.t;
  rqs : rq array;
  (* Per-instance "no entity" marker, compared by physical equality.
     Not shared across schedulers: its fields are mutable, and testbeds
     run on several domains at once. *)
  no_entity : entity;
  mutable entities : entity list; (* registration order, all CPUs *)
  mutable next_id : int;
  mutable migrations : int;
}

(* The credit scheduler's replenish period. *)
let credit_period = Sim.Time.ms 30

let no_completion () = ()
let idle_work = { cost = 0; category = Category.Hypervisor; fn = no_completion }

let make_entity ~id ~name ~weight ~domain ~cpu =
  {
    id;
    name;
    weight;
    domain;
    queue = Sim.Fifo.create ~dummy:idle_work;
    credits = 0;
    boosted = false;
    runtime = 0;
    cpu;
    migrate_penalty = 0;
  }

let make_rq no_entity cpu_id =
  {
    cpu_id;
    irq_queue = Sim.Fifo.create ~dummy:idle_work;
    resident = [];
    boost_fifo = Sim.Fifo.create ~dummy:no_entity;
    current = no_entity;
    slice_used = 0;
    busy = false;
    run_work = idle_work;
    run_entity = no_entity;
    run_start = 0;
    run_switch = 0;
    complete = no_completion;
    total_busy = 0;
    switches = 0;
  }

(* Periodic credit replenishment, proportional to weights. Accounting is
   global (like Xen's credit scheduler): an entity's share does not
   depend on which runqueue it currently sits on. *)
let rec replenish t () =
  let total_weight =
    List.fold_left (fun acc e -> acc + e.weight) 0 t.entities
  in
  if total_weight > 0 then begin
    let period_ns = Sim.Time.to_ns credit_period in
    List.iter
      (fun e ->
        let share = period_ns * e.weight / total_weight in
        (* Bank at most one period's worth of the entity's own share, as
           in Xen's credit scheduler: an idle low-weight domain must not
           accumulate a full period and burst past its entitlement. *)
        e.credits <- Int.min share (e.credits + share))
      t.entities
  end;
  Sim.Engine.schedule t.engine ~delay:credit_period (replenish t)

let[@cdna.hot] runnable e = not (Sim.Fifo.is_empty e.queue)

(* Pop boosted entities until one is still runnable and still resident
   here (an entity can migrate away between boost and dispatch). *)
let[@cdna.hot] rec pop_boosted t rq =
  if Sim.Fifo.is_empty rq.boost_fifo then t.no_entity
  else begin
    let e = Sim.Fifo.pop rq.boost_fifo in
    if e.cpu <> rq.cpu_id then pop_boosted t rq
    else begin
      e.boosted <- false;
      if runnable e then e else pop_boosted t rq
    end
  end

(* The runnable resident with the most credits, the first one on ties. *)
let[@cdna.hot] rec best_by_credits t best = function
  | [] -> best
  | e :: rest ->
      let best =
        if runnable e && (best == t.no_entity || e.credits > best.credits)
        then e
        else best
      in
      best_by_credits t best rest

let[@cdna.hot] pick_entity t rq =
  (* Stickiness: keep the current entity while it has work, its slice is
     not exhausted, and no boosted entity is waiting. *)
  let cur = rq.current in
  if
    cur != t.no_entity && runnable cur
    && Sim.Fifo.is_empty rq.boost_fifo
    && Sim.Time.compare rq.slice_used t.slice < 0
  then cur
  else
    let e = pop_boosted t rq in
    if e != t.no_entity then e else best_by_credits t t.no_entity rq.resident

let[@cdna.hot] rec dispatch t rq =
  if rq.busy then ()
  else if not (Sim.Fifo.is_empty rq.irq_queue) then
    execute t rq (Sim.Fifo.pop rq.irq_queue) t.no_entity ~switch:0
  else
    let e = pick_entity t rq in
    if e == t.no_entity then () (* CPU idles until the next post wakes it. *)
    else begin
      let switch =
        if rq.current == e then 0
        else begin
          rq.switches <- rq.switches + 1;
          t.ctx_switch_cost
        end
      in
      (* A freshly migrated entity pays the IPI + cache-affinity
         penalty on top of the ordinary switch, once. *)
      let switch =
        if e.migrate_penalty > 0 then begin
          let p = e.migrate_penalty in
          e.migrate_penalty <- 0;
          Sim.Time.add switch p
        end
        else switch
      in
      if rq.current != e then begin
        rq.current <- e;
        rq.slice_used <- 0
      end;
      execute t rq (Sim.Fifo.pop e.queue) e ~switch
    end

and[@cdna.hot] execute t rq w e ~switch =
  rq.busy <- true;
  rq.run_work <- w;
  rq.run_entity <- e;
  rq.run_start <- Sim.Engine.now t.engine;
  rq.run_switch <- switch;
  Sim.Engine.schedule t.engine ~delay:(Sim.Time.add switch w.cost) rq.complete

let trace_item t ~start ~total ~switch w e =
  let name, pid, tid =
    if e == t.no_entity then ("irq", 0, 0) else (e.name, e.domain + 1, e.id)
  in
  Sim.Trace.complete ~time:start ~dur:total ~tag:"sched" ~pid ~tid
    ~args:
      [
        ("category", Sim.Trace.Str (Format.asprintf "%a" Category.pp w.category));
        ("switch_ns", Sim.Trace.Int (Sim.Time.to_ns switch));
      ]
    name

(* End of the item in flight on [rq]: charge it, run its continuation,
   then pick the next one. Everything is read out of [rq] first, since
   the continuation may post work that dispatches a new item here. *)
let[@cdna.hot] complete t rq () =
  let w = rq.run_work and e = rq.run_entity in
  let start = rq.run_start and switch = rq.run_switch in
  let total = Sim.Time.add switch w.cost in
  let stop = Sim.Engine.now t.engine in
  if switch > 0 then
    Profile.charge t.profile Category.Hypervisor ~start
      ~stop:(Sim.Time.add start switch);
  Profile.charge t.profile w.category ~start:(Sim.Time.add start switch) ~stop;
  rq.total_busy <- Sim.Time.add rq.total_busy total;
  if e != t.no_entity then begin
    e.runtime <- Sim.Time.add e.runtime total;
    e.credits <- e.credits - Sim.Time.to_ns total;
    rq.slice_used <- Sim.Time.add rq.slice_used total
  end;
  if Sim.Trace.enabled () then
    (trace_item t ~start ~total ~switch w e
    [@cdna.alloc_ok "tracing branch, disabled unless the sched tag is on"]);
  rq.busy <- false;
  w.fn ();
  dispatch t rq

let create engine ?(cpus = 1) ?(ctx_switch_cost = Sim.Time.ns 2_500)
    ?(slice = Sim.Time.ms 1)
    ?(migration_cost = Sim.Time.us 9) ~profile () =
  if cpus <= 0 then invalid_arg "Cpu.create: non-positive cpus";
  let no_entity =
    make_entity ~id:(-1) ~name:"irq" ~weight:0 ~domain:(-1) ~cpu:(-1)
  in
  let t =
    {
      engine;
      profile;
      ctx_switch_cost;
      slice;
      migration_cost;
      rqs = Array.init cpus (make_rq no_entity);
      no_entity;
      entities = [];
      next_id = 0;
      migrations = 0;
    }
  in
  Array.iter
    (fun rq ->
      rq.complete <-
        (complete t rq
        [@cdna.alloc_ok "one completion closure per runqueue, built once"]))
    t.rqs;
  Sim.Engine.schedule engine ~delay:credit_period (replenish t);
  t

let num_cpus t = Array.length t.rqs

let add_entity t ~name ~weight ~domain =
  if weight <= 0 then invalid_arg "Cpu.add_entity: non-positive weight";
  let ncpus = Array.length t.rqs in
  (* Round-robin initial placement: entity i starts on runqueue i mod n.
     On a single-CPU host everything lands on runqueue 0, as before. *)
  let cpu = t.next_id mod ncpus in
  let e = make_entity ~id:t.next_id ~name ~weight ~domain ~cpu in
  t.next_id <- t.next_id + 1;
  t.entities <- t.entities @ [ e ];
  let rq = t.rqs.(cpu) in
  rq.resident <- rq.resident @ [ e ];
  e

let domain_of e = e.domain
let name_of e = e.name
let credits_of e = float_of_int e.credits /. 1000.
let cpu_of e = e.cpu

(* Work pending on [rq] other than entity [e]'s own queue. *)
let rq_busy_besides rq e =
  rq.busy
  || (not (Sim.Fifo.is_empty rq.irq_queue))
  || List.exists (fun x -> x != e && runnable x) rq.resident

(* Deterministic wake balancing: the lowest-index completely idle
   runqueue, if any. *)
let find_idle_rq t =
  let n = Array.length t.rqs in
  let rec scan i =
    if i >= n then None
    else begin
      let rq = t.rqs.(i) in
      if
        (not rq.busy)
        && Sim.Fifo.is_empty rq.irq_queue
        && not (List.exists runnable rq.resident)
      then Some rq
      else scan (i + 1)
    end
  in
  scan 0

let migrate t e ~to_rq =
  let from_rq = t.rqs.(e.cpu) in
  from_rq.resident <- List.filter (fun x -> x != e) from_rq.resident;
  if from_rq.current == e then from_rq.current <- t.no_entity;
  to_rq.resident <- to_rq.resident @ [ e ];
  e.cpu <- to_rq.cpu_id;
  e.migrate_penalty <- t.migration_cost;
  t.migrations <- t.migrations + 1

let post t e ~category ~cost fn =
  if cost < 0 then invalid_arg "Cpu.post: negative cost";
  let was_blocked = Sim.Fifo.is_empty e.queue in
  Sim.Fifo.push e.queue { cost; category; fn };
  let home = t.rqs.(e.cpu) in
  (* Boost-on-wake, like Xen's credit scheduler: a blocked entity that
     receives an event runs ahead of entities burning their timeslice.
     On an SMP host the wake may also migrate the entity to an idle
     runqueue when its home CPU is occupied (wake balancing). *)
  if was_blocked && (not e.boosted) && home.current != e then begin
    let target =
      if Array.length t.rqs > 1 && rq_busy_besides home e then
        find_idle_rq t
      else None
    in
    let rq =
      match target with
      | Some dst ->
          migrate t e ~to_rq:dst;
          dst
      | None -> home
    in
    e.boosted <- true;
    Sim.Fifo.push rq.boost_fifo e;
    dispatch t rq
  end
  else dispatch t t.rqs.(e.cpu)

let post_irq t ~cost fn =
  if cost < 0 then invalid_arg "Cpu.post_irq: negative cost";
  let rq = t.rqs.(0) in
  Sim.Fifo.push rq.irq_queue { cost; category = Category.Hypervisor; fn };
  dispatch t rq

let is_idle t =
  Array.for_all
    (fun rq -> (not rq.busy) && Sim.Fifo.is_empty rq.irq_queue)
    t.rqs
  && List.for_all (fun e -> Sim.Fifo.is_empty e.queue) t.entities

let total_busy t =
  Array.fold_left (fun acc rq -> Sim.Time.add acc rq.total_busy) 0 t.rqs

let ctx_switches t =
  Array.fold_left (fun acc rq -> acc + rq.switches) 0 t.rqs

let register_metrics t m =
  Sim.Metrics.gauge m "cpu.ctx_switches" (fun () -> ctx_switches t);
  Sim.Metrics.gauge m "cpu.busy_ns" (fun () -> Sim.Time.to_ns (total_busy t));
  (* SMP-only series are registered only on SMP hosts so single-CPU
     metric snapshots (the golden fixtures) are unchanged. *)
  if Array.length t.rqs > 1 then begin
    Sim.Metrics.gauge m "cpu.migrations" (fun () -> t.migrations);
    Array.iter
      (fun rq ->
        let labels = [ ("cpu", string_of_int rq.cpu_id) ] in
        Sim.Metrics.gauge m ~labels "cpu.rq.busy_ns" (fun () ->
            Sim.Time.to_ns rq.total_busy);
        Sim.Metrics.gauge m ~labels "cpu.rq.ctx_switches" (fun () ->
            rq.switches))
      t.rqs
  end;
  List.iter
    (fun e ->
      let labels =
        [ ("entity", e.name); ("domain", string_of_int e.domain) ]
      in
      Sim.Metrics.gauge m ~labels "cpu.entity.runtime_ns" (fun () ->
          Sim.Time.to_ns e.runtime);
      Sim.Metrics.gauge_f m ~labels "cpu.entity.credits_us" (fun () ->
          credits_of e))
    t.entities
