(** Guest-count scaling beyond the paper (the [scale-guests] sweep).

    The paper's Figure 3/4 stops at 24 guests — below the NIC's 32
    hardware contexts, so every CDNA guest always holds a context. This
    sweep keeps going: with hypervisor-mediated context paging
    ({!Cdna.Hyp.create}[ ~paging], which {!Testbed} sets whenever
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

(** [sweep ()] is the [scale-guests] output: {!Figures.configs} at every
    CPU count, ordered by CPU count, then guest count, then Xen before
    CDNA. Its table reports throughput, CDNA context swaps and idle time
    per (cpus, guests) cell; the footer names, per CPU count, the smallest
    guest count at which CDNA falls to or below Xen, followed (with
    [chart]) by the ASCII chart of that CPU count's series. *)
val sweep :
  ?pattern:Workload.Pattern.t ->
  ?slice:Sim.Time.t ->
  ?guest_counts:int list ->
  ?cpu_counts:int list ->
  ?chart:int ->
  unit ->
  Sweep.t

(** Scheduler slice used by the [--preset rx-heavy] sweep (100 us vs the
    1 ms default): with receive-dominated traffic it maximizes context
    touches per unit time, probing for a CDNA/Xen crossover. *)
val rx_heavy_slice : Sim.Time.t
