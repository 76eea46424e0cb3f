(** Event channels: Xen's virtual interrupts.

    A channel targets one domain and carries a bound handler (the guest's
    virtual ISR). Notifications are {e level-like}: while a delivery is
    pending and not yet handled, further notifies merge into it — the
    batching behaviour that lets guests amortize wakeup costs under load,
    which is central to the scalability shapes of the paper's Figures 3/4.

    Delivery costs: the notifier pays the notify cost (hypercall when a
    domain notifies), the hypervisor pays a dispatch cost, and the target
    pays its ISR cost when scheduled. *)

type t

(** [create hyp ~target ~isr_cost ~handler] binds a channel. [handler]
    runs in the target's kernel context after [isr_cost]. *)
val create :
  Hypervisor.t ->
  target:Domain.t ->
  isr_cost:Sim.Time.t ->
  handler:(unit -> unit) ->
  t

(** [notify t ~from] sends an event from a domain (costs an event-notify
    hypercall on [from]'s vcpu, then hypervisor dispatch). *)
val notify : t -> from:Domain.t -> unit

(** [notify_from_hypervisor t] sends an event from hypervisor context
    (physical-ISR forwarding); costs only the dispatch. *)
val notify_from_hypervisor : t -> unit

(** Virtual interrupts actually delivered (i.e. handler invocations). *)
val deliveries : t -> int

(** Notifies merged into an already-pending delivery. *)
val merged : t -> int
