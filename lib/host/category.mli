(** Execution accounting categories.

    Mirrors the Xenoprof categories used by the paper's Tables 2-4: time is
    attributed to the hypervisor, to a domain's kernel, to a domain's user
    space, or to idle. Domains are identified by small integers assigned by
    the VMM substrate. *)

type domain_id = int

type t =
  | Hypervisor  (** Hypervisor text: hypercalls, interrupt dispatch, scheduling. *)
  | Kernel of domain_id  (** Guest (or driver-domain) kernel. *)
  | User of domain_id  (** Guest (or driver-domain) user space. *)
  | Idle

val equal : t -> t -> bool

(** Domain the category belongs to, if any. *)
val domain : t -> domain_id option

val pp : Format.formatter -> t -> unit
