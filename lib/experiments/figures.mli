(** Reproductions of the paper's Figures 3 and 4: aggregate throughput as
    the number of guests scales, for Xen software virtualization
    (Intel NIC) and CDNA, with CDNA's idle time annotated. *)

type point = {
  guests : int;
  xen : Run.measurement;
  cdna : Run.measurement;
}

(** Guest counts used by the paper. *)
val paper_guest_counts : int list

(** [configs base guest_counts]: at each guest count, [base] under Xen
    software I/O on the Intel NIC, then under CDNA on the RiceNIC
    ({!Config.xen_intel}, {!Config.cdna_ricenic}). *)
val configs : Config.t -> int list -> Config.t list

(** Pairs the measurements of {!configs} into one point per guest count. *)
val points : Run.measurement list -> point list

(** [figure3 ()] sweeps transmit throughput over the paper's guest
    counts. *)
val figure3 : unit -> point list

(** The figure for [pattern] as an output: a table of both series next to
    the paper's anchor values, followed by their ASCII chart; its CSV
    form is (guests, xen_mbps, cdna_mbps, cdna_idle_pct, xen_idle_pct). *)
val figure :
  title:string -> ?guest_counts:int list -> Workload.Pattern.t -> Sweep.t

(** Figures 3 and 4, by number. *)
val figures : (int * Sweep.t) list

(** ASCII chart of the CDNA and Xen throughput series over guests. *)
val chart : point list -> string
