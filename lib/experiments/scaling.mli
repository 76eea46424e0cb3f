(** Guest-count scaling beyond the paper (the [scale-guests] sweep).

    The paper's Figure 3/4 stops at 24 guests — below the NIC's 32
    hardware contexts, so every CDNA guest always holds a context. This
    sweep keeps going: with hypervisor-mediated context paging
    ({!Cdna.Hyp.enable_paging}, turned on by {!Testbed} whenever
    [guests > Cdna.Cnic.num_contexts]) hundreds of guests can share the 32
    contexts, at the price of {!Cdna.Cdna_costs.t.context_swap} hypervisor
    work per context save/restore. Points are measured for both CDNA and
    Xen software I/O across a guests × host-CPUs grid; the interesting
    output is the {e crossover} — the guest count at which swap overhead
    (plus lost receive traffic while paged out) eats CDNA's advantage.

    Single-CPU points at or below 32 guests are the degenerate case and
    reproduce the pre-paging scheduler and datapath event-for-event. *)

(** 8..256 guests: through the 32-context boundary and well past it. *)
val default_guest_counts : int list

val default_cpu_counts : int list

(** [sweep ()] runs {!Figures.sweep} at every CPU count: each
    (cpus, guests) cell is measured for CDNA and Xen_sw. Runs are
    sequential and deterministic; the result list is ordered by CPU
    count, then guest count. A point's CDNA context swaps are
    [p.cdna.Run.ctx_swaps]. *)
val sweep :
  ?quick:bool ->
  ?pattern:Workload.Pattern.t ->
  ?slice:Sim.Time.t ->
  ?guest_counts:int list ->
  ?cpu_counts:int list ->
  unit ->
  Figures.point list

(** Scheduler slice used by the [--preset rx-heavy] sweep (100 us vs the
    1 ms default): with receive-dominated traffic it maximizes context
    touches per unit time, probing for a CDNA/Xen crossover. *)
val rx_heavy_slice : Sim.Time.t

(** Host CPU count a point was measured on. *)
val cpus : Figures.point -> int

(** Smallest guest count at which CDNA throughput falls to or below
    Xen's, for the given CPU count. *)
val crossover : Figures.point list -> cpus:int -> int option

(** Table of every point plus the per-CPU-count crossover summary. *)
val print_table : Figures.point list -> unit

val csv : Figures.point list -> string
