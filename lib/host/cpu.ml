type work = { cost : Sim.Time.t; category : Category.t; fn : unit -> unit }

type entity = {
  id : int;
  name : string;
  weight : int;
  domain : Category.domain_id;
  queue : work Queue.t;
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
  irq_queue : work Queue.t;
  mutable resident : entity list; (* arrival order on this runqueue *)
  boost_fifo : entity Queue.t;
  mutable current : entity option;
  mutable slice_used : Sim.Time.t;
  mutable busy : bool;
  mutable total_busy : Sim.Time.t;
  mutable switches : int;
}

type t = {
  engine : Sim.Engine.t;
  profile : Profile.t;
  ctx_switch_cost : Sim.Time.t;
  slice : Sim.Time.t;
  credit_period : Sim.Time.t;
  migration_cost : Sim.Time.t;
  rqs : rq array;
  mutable entities : entity list; (* registration order, all CPUs *)
  mutable next_id : int;
  mutable migrations : int;
  mutable replenish_ev : Sim.Engine.event_id option;
  mutable stopped : bool;
}

let make_rq cpu_id =
  {
    cpu_id;
    irq_queue = Queue.create ();
    resident = [];
    boost_fifo = Queue.create ();
    current = None;
    slice_used = 0;
    busy = false;
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
    let period_ns = Sim.Time.to_ns t.credit_period in
    List.iter
      (fun e ->
        let share = period_ns * e.weight / total_weight in
        (* Bank at most one period's worth of the entity's own share, as
           in Xen's credit scheduler: an idle low-weight domain must not
           accumulate a full period and burst past its entitlement. *)
        e.credits <- Int.min share (e.credits + share))
      t.entities
  end;
  if not t.stopped then
    t.replenish_ev <-
      Some (Sim.Engine.schedule t.engine ~delay:t.credit_period (replenish t))

let create engine ?(cpus = 1) ?(ctx_switch_cost = Sim.Time.ns 2_500)
    ?(slice = Sim.Time.ms 1) ?(credit_period = Sim.Time.ms 30)
    ?(migration_cost = Sim.Time.us 9) ~profile () =
  if cpus <= 0 then invalid_arg "Cpu.create: non-positive cpus";
  let t =
    {
      engine;
      profile;
      ctx_switch_cost;
      slice;
      credit_period;
      migration_cost;
      rqs = Array.init cpus make_rq;
      entities = [];
      next_id = 0;
      migrations = 0;
      replenish_ev = None;
      stopped = false;
    }
  in
  t.replenish_ev <-
    Some (Sim.Engine.schedule engine ~delay:t.credit_period (replenish t));
  t

let stop t =
  t.stopped <- true;
  match t.replenish_ev with
  | Some ev ->
      Sim.Engine.cancel t.engine ev;
      t.replenish_ev <- None
  | None -> ()

let num_cpus t = Array.length t.rqs

let add_entity t ~name ~weight ~domain =
  if weight <= 0 then invalid_arg "Cpu.add_entity: non-positive weight";
  let ncpus = Array.length t.rqs in
  (* Round-robin initial placement: entity i starts on runqueue i mod n.
     On a single-CPU host everything lands on runqueue 0, as before. *)
  let cpu = t.next_id mod ncpus in
  let e =
    {
      id = t.next_id;
      name;
      weight;
      domain;
      queue = Queue.create ();
      credits = 0;
      boosted = false;
      runtime = 0;
      cpu;
      migrate_penalty = 0;
    }
  in
  t.next_id <- t.next_id + 1;
  t.entities <- t.entities @ [ e ];
  let rq = t.rqs.(cpu) in
  rq.resident <- rq.resident @ [ e ];
  e

let domain_of e = e.domain
let name_of e = e.name
let runtime_of e = e.runtime
let credits_of e = float_of_int e.credits /. 1000.
let cpu_of e = e.cpu

let runnable e = not (Queue.is_empty e.queue)

(* Pop boosted entities until one is still runnable and still resident
   here (an entity can migrate away between boost and dispatch). *)
let rec pop_boosted rq =
  match Queue.take_opt rq.boost_fifo with
  | None -> None
  | Some e ->
      if e.cpu <> rq.cpu_id then pop_boosted rq
      else begin
        e.boosted <- false;
        if runnable e then Some e else pop_boosted rq
      end

let best_by_credits rq =
  List.fold_left
    (fun best e ->
      if not (runnable e) then best
      else
        match best with
        | None -> Some e
        | Some b -> if e.credits > b.credits then Some e else best)
    None rq.resident

let pick_entity t rq =
  (* Stickiness: keep the current entity while it has work, its slice is
     not exhausted, and no boosted entity is waiting. *)
  let boosted_waiting = not (Queue.is_empty rq.boost_fifo) in
  match rq.current with
  | Some e
    when runnable e
         && (not boosted_waiting)
         && Sim.Time.compare rq.slice_used t.slice < 0 ->
      Some e
  | _ -> (
      match pop_boosted rq with
      | Some e -> Some e
      | None -> best_by_credits rq)

let rec dispatch t rq =
  if rq.busy then ()
  else if not (Queue.is_empty rq.irq_queue) then begin
    let w = Queue.pop rq.irq_queue in
    execute t rq w ~entity:None ~switch:0
  end
  else
    match pick_entity t rq with
    | None -> () (* CPU idles until the next post wakes it. *)
    | Some e ->
        let switch =
          match rq.current with
          | Some cur when cur == e -> 0
          | _ ->
              rq.switches <- rq.switches + 1;
              t.ctx_switch_cost
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
        if
          (match rq.current with Some cur -> cur != e | None -> true)
        then begin
          rq.current <- Some e;
          rq.slice_used <- 0
        end;
        let w = Queue.pop e.queue in
        execute t rq w ~entity:(Some e) ~switch

and execute t rq w ~entity ~switch =
  rq.busy <- true;
  let start = Sim.Engine.now t.engine in
  let total = Sim.Time.add switch w.cost in
  ignore
    (Sim.Engine.schedule t.engine ~delay:total (fun () ->
         let stop = Sim.Engine.now t.engine in
         if switch > 0 then
           Profile.charge t.profile Category.Hypervisor ~start
             ~stop:(Sim.Time.add start switch);
         Profile.charge t.profile w.category
           ~start:(Sim.Time.add start switch) ~stop;
         rq.total_busy <- Sim.Time.add rq.total_busy total;
         (match entity with
         | Some e ->
             e.runtime <- Sim.Time.add e.runtime total;
             e.credits <- e.credits - Sim.Time.to_ns total;
             rq.slice_used <- Sim.Time.add rq.slice_used total
         | None -> ());
         if Sim.Trace.tag_enabled "sched" then begin
           let name, pid, tid =
             match entity with
             | Some e -> (e.name, e.domain + 1, e.id)
             | None -> ("irq", 0, 0)
           in
           Sim.Trace.complete ~time:start ~dur:total ~tag:"sched" ~pid ~tid
             ~args:
               [
                 ( "category",
                   Sim.Trace.Str (Format.asprintf "%a" Category.pp w.category)
                 );
                 ("switch_ns", Sim.Trace.Int (Sim.Time.to_ns switch));
               ]
             name
         end;
         rq.busy <- false;
         w.fn ();
         dispatch t rq))

(* Work pending on [rq] other than entity [e]'s own queue. *)
let rq_busy_besides rq e =
  rq.busy
  || (not (Queue.is_empty rq.irq_queue))
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
        && Queue.is_empty rq.irq_queue
        && not (List.exists runnable rq.resident)
      then Some rq
      else scan (i + 1)
    end
  in
  scan 0

let migrate t e ~to_rq =
  let from_rq = t.rqs.(e.cpu) in
  from_rq.resident <- List.filter (fun x -> x != e) from_rq.resident;
  (match from_rq.current with
  | Some cur when cur == e -> from_rq.current <- None
  | Some _ | None -> ());
  to_rq.resident <- to_rq.resident @ [ e ];
  e.cpu <- to_rq.cpu_id;
  e.migrate_penalty <- t.migration_cost;
  t.migrations <- t.migrations + 1

let post t e ~category ~cost fn =
  if cost < 0 then invalid_arg "Cpu.post: negative cost";
  let was_blocked = Queue.is_empty e.queue in
  Queue.push { cost; category; fn } e.queue;
  let home = t.rqs.(e.cpu) in
  (* Boost-on-wake, like Xen's credit scheduler: a blocked entity that
     receives an event runs ahead of entities burning their timeslice.
     On an SMP host the wake may also migrate the entity to an idle
     runqueue when its home CPU is occupied (wake balancing). *)
  if was_blocked && (not e.boosted)
     && (match home.current with Some cur -> cur != e | None -> true)
  then begin
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
    Queue.push e rq.boost_fifo;
    dispatch t rq
  end
  else dispatch t t.rqs.(e.cpu)

let post_irq t ?(cpu = 0) ~cost fn =
  if cost < 0 then invalid_arg "Cpu.post_irq: negative cost";
  if cpu < 0 || cpu >= Array.length t.rqs then
    invalid_arg "Cpu.post_irq: cpu out of range";
  let rq = t.rqs.(cpu) in
  Queue.push { cost; category = Category.Hypervisor; fn } rq.irq_queue;
  dispatch t rq

let is_idle t =
  Array.for_all
    (fun rq -> (not rq.busy) && Queue.is_empty rq.irq_queue)
    t.rqs
  && List.for_all (fun e -> Queue.is_empty e.queue) t.entities

let total_busy t =
  Array.fold_left (fun acc rq -> Sim.Time.add acc rq.total_busy) 0 t.rqs

let ctx_switches t =
  Array.fold_left (fun acc rq -> acc + rq.switches) 0 t.rqs

let migrations t = t.migrations

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
