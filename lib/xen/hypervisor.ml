type t = {
  engine : Sim.Engine.t;
  cpu : Host.Cpu.t;
  mem : Memory.Phys_mem.t;
  costs : Costs.t;
  mutable domains : Domain.t list;
  mutable next_id : int;
  mutable phys_irqs : int;
  mutable hypercalls : int;
}

let create engine ~cpu ~mem ~costs () =
  {
    engine;
    cpu;
    mem;
    costs;
    domains = [];
    next_id = 0;
    phys_irqs = 0;
    hypercalls = 0;
  }

let engine t = t.engine
let cpu t = t.cpu
let mem t = t.mem
let costs t = t.costs

let create_domain t ~name ~kind ~weight ~mem_pages =
  let id = t.next_id in
  t.next_id <- id + 1;
  (match Memory.Phys_mem.alloc t.mem ~owner:id ~count:mem_pages with
  | Ok _ -> ()
  | Error `Out_of_memory ->
      invalid_arg "Hypervisor.create_domain: out of memory");
  let entity = Host.Cpu.add_entity t.cpu ~name ~weight ~domain:id in
  let dom = Domain.make ~id ~name ~kind ~entity ~mem:t.mem in
  t.domains <- t.domains @ [ dom ];
  dom

let domains t = t.domains

let driver_domain t =
  List.find_opt (fun d -> Domain.kind d = Domain.Driver) t.domains

let hypervisor_owner = -1

let alloc_hyp_pages t n =
  match Memory.Phys_mem.alloc t.mem ~owner:hypervisor_owner ~count:n with
  | Ok pages -> pages
  | Error `Out_of_memory ->
      invalid_arg "Hypervisor.alloc_hyp_pages: out of memory"

let alloc_pages t dom n =
  match Memory.Phys_mem.alloc t.mem ~owner:(Domain.id dom) ~count:n with
  | Ok pages -> pages
  | Error `Out_of_memory -> invalid_arg "Hypervisor.alloc_pages: out of memory"

let free_page t dom pfn =
  if not (Memory.Phys_mem.owned_by t.mem pfn (Domain.id dom)) then
    invalid_arg "Hypervisor.free_page: domain does not own page";
  Memory.Phys_mem.free t.mem pfn

let hypercall t ~from ~cost fn =
  t.hypercalls <- t.hypercalls + 1;
  if Sim.Trace.enabled () then
    Sim.Trace.instant ~time:(Sim.Engine.now t.engine) ~tag:"hypercall"
      ~pid:(Domain.id from + 1)
      ~args:
        [
          ("cost_ns", Sim.Trace.Int (Sim.Time.to_ns cost));
          ("domain", Sim.Trace.Str (Domain.name from));
        ]
      "hypercall";
  Host.Cpu.post t.cpu (Domain.entity from) ~category:Host.Category.Hypervisor
    ~cost fn

let kernel_work t dom ~cost fn =
  Host.Cpu.post t.cpu (Domain.entity dom) ~category:(Domain.kernel dom) ~cost fn

let user_work t dom ~cost fn =
  Host.Cpu.post t.cpu (Domain.entity dom) ~category:(Domain.user dom) ~cost fn

let route_irq t irq handler =
  Bus.Irq.set_handler irq (fun () ->
      t.phys_irqs <- t.phys_irqs + 1;
      if Sim.Trace.enabled () then
        Sim.Trace.instant ~time:(Sim.Engine.now t.engine) ~tag:"irq"
          "phys-irq";
      Host.Cpu.post_irq t.cpu ~cost:t.costs.Costs.isr handler)

let reset_counters t = t.phys_irqs <- 0

let register_metrics t m =
  Sim.Metrics.gauge m "xen.phys_irqs" (fun () -> t.phys_irqs);
  Sim.Metrics.gauge m "xen.hypercalls" (fun () -> t.hypercalls);
  List.iter
    (fun d ->
      Sim.Metrics.gauge m
        ~labels:[ ("domain", Domain.name d) ]
        "xen.domain.virqs"
        (fun () -> Domain.virq_count d))
    t.domains
