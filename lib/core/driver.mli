(** CDNA guest device driver.

    The paravirtualized driver of paper section 3: the guest's
    {!Guestos.Nic_driver} core with the hypercall back end. It drives its
    private hardware context {e exactly} as a native driver would — rings,
    doorbell PIO writes into its mapped mailbox partition,
    interrupt-driven completion polling — except that descriptors are
    enqueued through the hypervisor's protected {!Hyp.enqueue} hypercall
    (which validates, pins and sequence-stamps them), batched per
    send/repost to amortize the hypercall cost, and the rings are
    registered by hypercall. Under [Disabled] protection the same call
    degenerates to direct ring writes (Table 4); the driver code is
    identical, matching the paper's wrapper-function design for IOMMU
    systems.

    This module adds what only a CDNA guest needs: the doorbell PIO cost
    after each accepted batch, the binding to a context handle that
    {!rebind} and automatic fault recovery can change, and the generation
    check that keeps hypercalls of an old binding from touching the new
    context. *)

type t

val create :
  hyp:Hyp.t ->
  handle:Hyp.ctx_handle ->
  costs:Guestos.Os_costs.t ->
  ?materialize:bool ->
  unit ->
  t

(** The driver core: the stack-facing device, readiness and counters. *)
val core : t -> Guestos.Nic_driver.t

(** [rebind t handle] re-targets the driver at a fresh context handle
    (after {!Hyp.migrate}): ring and buffer state is re-registered from
    scratch; frames still queued in the driver are transmitted on the new
    context, frames lost in flight on the old one are the transport's
    problem (as on any link flap). *)
val rebind : t -> Hyp.ctx_handle -> unit

(** [enable_auto_recovery t] arranges for the driver to recover from
    protection faults on its context without outside help: the
    hypervisor's fault report triggers {!Hyp.reassign} (bounded
    retry/backoff) and the driver
    rebinds to the fresh context. Recovery re-arms itself after each
    successful rebind. *)
val enable_auto_recovery : t -> unit

(** Enqueue hypercalls rejected by the hypervisor (diagnostics). *)
val enqueue_errors : t -> int

(** Successful automatic fault recoveries (context reassign + rebind). *)
val recoveries : t -> int

(** The driver's current context handle (changes across rebinds). *)
val handle : t -> Hyp.ctx_handle
