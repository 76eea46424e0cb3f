(** Virtual machine (domain) state.

    A domain bundles an identity, a schedulable CPU entity, and its memory
    allocation. The {e driver domain} is the privileged domain that owns
    physical devices in Xen's software I/O architecture; guests run the
    workloads. *)

type kind =
  | Driver  (** Privileged driver domain (dom0-like). *)
  | Guest
  | Native  (** Bare-metal OS in the unvirtualized baseline. *)

type t

val id : t -> Host.Category.domain_id
val name : t -> string
val kind : t -> kind
val entity : t -> Host.Cpu.entity

(** Convenience categories for work accounting. *)
val kernel : t -> Host.Category.t

val user : t -> Host.Category.t

(** Pages currently owned, ascending (allocated at creation; may
    grow/shrink through ballooning or grant transfers). Read from the
    domain's {!Memory.Phys_mem}, the one record of page ownership. *)
val pages : t -> Memory.Addr.pfn list

val page_count : t -> int

(** Virtual interrupts delivered to this domain so far. *)
val virq_count : t -> int

(** Used by the experiment harness at the end of warm-up. *)
val reset_virq_count : t -> unit

(**/**)

(* Internal constructors for Hypervisor. *)
val make :
  id:Host.Category.domain_id ->
  name:string ->
  kind:kind ->
  entity:Host.Cpu.entity ->
  mem:Memory.Phys_mem.t ->
  t

val incr_virq : t -> unit
