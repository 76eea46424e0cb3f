(** The hypervisor.

    Performs Xen's three key functions from paper section 2.1: it
    {b allocates physical resources} to domains and isolates them (memory
    ownership via {!Memory.Phys_mem}, CPU via {!Host.Cpu}'s credit
    scheduler), it {b receives all physical interrupts} and forwards them
    as virtual interrupts, and it {b mediates I/O access} (MMIO mappings of
    device regions are handed out by the hypervisor only).

    Hypercalls execute on the calling domain's vcpu but are charged to the
    hypervisor category, matching how Xenoprof attributes them. *)

type t

val create :
  Sim.Engine.t ->
  cpu:Host.Cpu.t ->
  mem:Memory.Phys_mem.t ->
  costs:Costs.t ->
  unit ->
  t

val engine : t -> Sim.Engine.t

val cpu : t -> Host.Cpu.t
val mem : t -> Memory.Phys_mem.t
val costs : t -> Costs.t

(** {1 Domains} *)

(** [create_domain t ~name ~kind ~weight ~mem_pages] allocates memory and a
    scheduler entity. Domain ids are assigned sequentially from 0.
    @raise Invalid_argument if memory is exhausted. *)
val create_domain :
  t -> name:string -> kind:Domain.kind -> weight:int -> mem_pages:int -> Domain.t

val domains : t -> Domain.t list
val driver_domain : t -> Domain.t option

(** {1 Memory on behalf of domains} *)

(** [alloc_hyp_pages t n] allocates hypervisor-owned pages.
    @raise Invalid_argument when out of memory. *)
val alloc_hyp_pages : t -> int -> Memory.Addr.pfn list

(** [alloc_pages t dom n] gives [dom] [n] more pages.
    @raise Invalid_argument when out of memory. *)
val alloc_pages : t -> Domain.t -> int -> Memory.Addr.pfn list

(** [free_page t dom pfn] returns a page to the hypervisor's allocator
    (subject to quarantine while DMA references are outstanding).
    @raise Invalid_argument if [dom] does not own [pfn]. *)
val free_page : t -> Domain.t -> Memory.Addr.pfn -> unit

(** {1 Execution} *)

(** [hypercall t ~from ~cost fn] runs [fn] after [cost] of hypervisor time
    on [from]'s vcpu. *)
val hypercall : t -> from:Domain.t -> cost:Sim.Time.t -> (unit -> unit) -> unit

(** [kernel_work t dom ~cost fn] posts guest-kernel work. *)
val kernel_work : t -> Domain.t -> cost:Sim.Time.t -> (unit -> unit) -> unit

(** [user_work t dom ~cost fn] posts guest-user work. *)
val user_work : t -> Domain.t -> cost:Sim.Time.t -> (unit -> unit) -> unit

(** {1 Interrupts} *)

(** [route_irq t irq handler] captures a physical interrupt line: each
    assertion costs ISR time in the hypervisor, then runs [handler] (which
    typically notifies event channels). *)
val route_irq : t -> Bus.Irq.t -> (unit -> unit) -> unit

val reset_counters : t -> unit

(** Expose [xen.phys_irqs], [xen.hypercalls] and per-domain
    [xen.domain.virqs] gauges. Call after all domains exist. *)
val register_metrics : t -> Sim.Metrics.t -> unit
