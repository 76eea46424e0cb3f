(** SMP execution model with per-CPU Xen-like credit runqueues.

    The paper's testbed is a single Opteron shared by the hypervisor, the
    driver domain and all guests; where CPU time goes is the core of the
    evaluation. This module executes {e work items} — [(cost, category,
    continuation)] — on one or more simulated CPUs:

    - {b IRQ work} ({!post_irq}) models physical-interrupt handling in the
      hypervisor: it runs before any domain work (at item boundaries; items
      are microsecond-scale, matching real interrupt latency). Each IRQ is
      routed to one CPU (default CPU 0, matching a single-IOAPIC host).
    - {b Domain work} ({!post}) queues on a schedulable {!entity} (a vcpu).
      Entities are multiplexed by a credit scheduler: weighted proportional
      share with boost-on-wake (a blocked entity that receives work is
      scheduled with priority once, like Xen's BOOST state), a stickiness
      slice to bound context-switch churn, and a per-switch cost charged to
      the hypervisor.

    With [cpus > 1] each CPU has its own runqueue; entities are placed
    round-robin at registration and may migrate on wake: a blocked entity
    that receives work while its home CPU is occupied moves to the
    lowest-index idle CPU, paying a one-shot IPI + cache-affinity penalty
    ([migration_cost]) on its next dispatch. Credit replenishment is
    global (an entity's share is independent of its runqueue), and all
    scheduling decisions are deterministic. The replenish timer
    reschedules itself every period for the engine's lifetime, so an
    idle scheduler leaves exactly one pending event.

    With the default [cpus = 1] the scheduler is event-for-event identical
    to the historical single-CPU model.

    Every executed item is charged to its {!Category.t} in the profile, so
    the experiment harness can reproduce Xenoprof's execution profiles. *)

type t
type entity

val create :
  Sim.Engine.t ->
  ?cpus:int ->
  (* default 1 *)
  ?ctx_switch_cost:Sim.Time.t ->
  (* default 2.5 us: switch plus amortized cache/TLB refill *)
  ?slice:Sim.Time.t ->
  (* default 1 ms *)
  ?migration_cost:Sim.Time.t ->
  (* default 9 us: IPI delivery plus cold-cache refill on the new CPU *)
  profile:Profile.t ->
  unit ->
  t

(** Number of simulated CPUs (runqueues). *)
val num_cpus : t -> int

(** [add_entity t ~name ~weight ~domain] registers a schedulable vcpu for
    [domain]. [weight] is the credit-scheduler weight (Xen default 256).
    Entities are placed on runqueues round-robin in registration order. *)
val add_entity :
  t -> name:string -> weight:int -> domain:Category.domain_id -> entity

val domain_of : entity -> Category.domain_id
val name_of : entity -> string

(** Index of the runqueue the entity currently lives on. *)
val cpu_of : entity -> int

(** [post t e ~category ~cost fn] queues a work item on entity [e]. When the
    item completes, [cost] is charged to [category] and [fn] runs. Posting
    to a blocked (empty-queue) entity wakes it with boost priority, possibly
    migrating it to an idle CPU on an SMP host.
    @raise Invalid_argument if [cost] is negative. *)
val post :
  t -> entity -> category:Category.t -> cost:Sim.Time.t -> (unit -> unit) -> unit

(** [post_irq t ~cost fn] queues hypervisor interrupt work on CPU 0; it
    preempts all domain work on that CPU at the next item boundary and is
    charged to [Category.Hypervisor]. *)
val post_irq : t -> cost:Sim.Time.t -> (unit -> unit) -> unit

(** True when no item is executing and all queues on all CPUs are empty. *)
val is_idle : t -> bool

(** Expose scheduler state as pull gauges: [cpu.ctx_switches]
    (entity-to-entity switches, summed over CPUs), [cpu.busy_ns] (busy
    time summed over CPUs: all categories, incl. switches), and per-entity
    [cpu.entity.runtime_ns] (CPU time executed) / [cpu.entity.credits_us]
    (credit bank in microseconds, replenished every credit period and
    capped at the entity's weighted share of one period; internally
    integer nanoseconds, so no float drift) labelled by entity name and
    domain. On SMP hosts ([cpus > 1]) additionally [cpu.migrations]
    (cross-CPU wake migrations) and per-runqueue
    [cpu.rq.busy_ns] / [cpu.rq.ctx_switches] labelled by cpu index —
    gated so single-CPU metric snapshots are unchanged. Call after all
    entities are registered. *)
val register_metrics : t -> Sim.Metrics.t -> unit
