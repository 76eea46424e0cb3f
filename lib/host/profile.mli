(** Execution-time profile (Xenoprof equivalent).

    Accumulates CPU busy time per {!Category.t}. The experiment harness
    resets the profile after warm-up and reads a {!report} at the end of the
    measured window, reproducing the "Domain Execution Profile" columns of
    the paper's Tables 2-4. *)

type t

val create : unit -> t

(** [add t cat dt] charges [dt] of CPU time to [cat].
    @raise Invalid_argument if [cat] names a negative domain id. *)
val add : t -> Category.t -> Sim.Time.t -> unit

(** [charge t cat ~start ~stop] charges the part of [\[start, stop\]] that
    falls after the last {!reset}, so a slice spanning the reset only
    contributes its post-reset portion (keeps the profile conserved when a
    measurement window opens mid-slice). *)
val charge : t -> Category.t -> start:Sim.Time.t -> stop:Sim.Time.t -> unit

(** Total time charged to a category so far. *)
val total : t -> Category.t -> Sim.Time.t

(** Sum over all non-idle categories. *)
val busy : t -> Sim.Time.t

(** Drop all accumulated time (used at the end of warm-up). [now] marks
    the start of the new accounting window: {!charge} intervals are
    clamped to it. *)
val reset : ?now:Sim.Time.t -> t -> unit

(** Fractions of a measurement window, in percent, in the paper's layout. *)
type report = {
  hyp : float;
  driver_kernel : float;
  driver_user : float;
  guest_kernel : float;
  guest_user : float;
  idle : float;
}

(** [report t ~window ~driver_domain] splits busy time between the driver
    domain (if any) and all other domains, and derives idle as the
    unaccounted remainder of [window].
    @raise Invalid_argument if [window] is not positive. *)
val report : t -> window:Sim.Time.t -> driver_domain:Category.domain_id option -> report

val pp_report : Format.formatter -> report -> unit
