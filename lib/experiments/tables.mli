(** Reproductions of the paper's Tables 1-4.

    Each table is one {!Sweep.t} whose rows put the simulated values next
    to the paper's published ones, so the comparison the paper invites is
    immediate. Its CSV form carries the same cells. *)

(** Tables 1-4, in order. *)
val tables : Sweep.t list
