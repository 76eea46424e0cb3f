type t = {
  hyp : Hypervisor.t;
  target : Domain.t;
  isr_cost : Sim.Time.t;
  handler : unit -> unit;
  mutable pending : bool;
  mutable deliveries : int;
  mutable merged : int;
}

let create hyp ~target ~isr_cost ~handler =
  { hyp; target; isr_cost; handler; pending = false; deliveries = 0; merged = 0 }

(* Mark pending and post the target's virtual ISR. Runs in whatever
   context performs the dispatch; the dispatch cost itself is charged by
   the callers below. *)
let deliver t =
  if t.pending then t.merged <- t.merged + 1
  else begin
    t.pending <- true;
    t.deliveries <- t.deliveries + 1;
    Domain.incr_virq t.target;
    if Sim.Trace.enabled () then
      Sim.Trace.instant
        ~time:(Sim.Engine.now (Hypervisor.engine t.hyp))
        ~tag:"irq"
        ~pid:(Domain.id t.target + 1)
        ~args:[ ("domain", Sim.Trace.Str (Domain.name t.target)) ]
        "virq";
    Host.Cpu.post (Hypervisor.cpu t.hyp) (Domain.entity t.target)
      ~category:(Domain.kernel t.target) ~cost:t.isr_cost (fun () ->
        t.pending <- false;
        t.handler ())
  end

let notify t ~from =
  let costs = Hypervisor.costs t.hyp in
  Hypervisor.hypercall t.hyp ~from
    ~cost:(Sim.Time.add costs.Costs.event_notify costs.Costs.virq_dispatch)
    (fun () -> deliver t)

let notify_from_hypervisor t =
  let costs = Hypervisor.costs t.hyp in
  Host.Cpu.post_irq (Hypervisor.cpu t.hyp) ~cost:costs.Costs.virq_dispatch
    (fun () -> deliver t)

let deliveries t = t.deliveries
let merged t = t.merged
