(** Reproductions of the paper's Tables 1-4.

    Each [tableN] runs the experiments and returns structured rows;
    {!tables} prints them (or their CSV) next to the paper's published
    values so the comparison the paper invites is immediate. [quick]
    shortens runs (for tests). *)

(** A cell of paper-reference data: the value printed in the paper. *)
type paper_profile = {
  p_mbps : float;
  p_hyp : float;
  p_drv_os : float;
  p_drv_user : float;
  p_guest_os : float;
  p_guest_user : float;
  p_idle : float;
  p_drv_intr : float;
  p_guest_intr : float;
}

(** {1 Table 1: native vs Xen guest, 6 NICs} *)

type t1_row = {
  t1_label : string;
  t1_tx : Run.measurement;
  t1_rx : Run.measurement;
  t1_paper_tx : float;
  t1_paper_rx : float;
}

val table1 : ?quick:bool -> unit -> t1_row list

(** {1 Tables 2-3: single-guest transmit/receive, 2 NICs} *)

type t23_row = {
  t23_label : string;
  t23_m : Run.measurement;
  t23_paper : paper_profile;
}

val table2 : ?quick:bool -> unit -> t23_row list
val table3 : ?quick:bool -> unit -> t23_row list

(** {1 Table 4: CDNA with and without DMA protection} *)

val table4 : ?quick:bool -> unit -> t23_row list

(** One reproducible table: run it and print it with its title, or run
    it and render the same cells as CSV. *)
type table = { print : quick:bool -> unit; csv : quick:bool -> string }

(** Tables 1-4, in order. *)
val tables : table list

(** Run and print every table. *)
val print_all : ?quick:bool -> unit -> unit
