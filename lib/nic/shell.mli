(** The device shell every NIC model shares.

    One {!Dp} datapath, one {!Coalesce} interrupt throttle in front of the
    physical interrupt, and, when the configuration has a
    [firmware_delay], the mailbox {!Firmware}. A NIC model decides how
    many contexts the datapath has and what a coalesced interrupt does:
    {!Conventional} raises its line, the CDNA NIC first posts an interrupt
    bit vector. *)

type t

(** [create engine ~mem ~dma ~config ~contexts ~dma_context_base ~notify
    ~on_fault ~fire] — the datapath calls [notify ~ctx] when context
    [ctx] has new completion state, then requests an interrupt from the
    coalescer, which calls [fire] for each interrupt it delivers. *)
val create :
  Sim.Engine.t ->
  mem:Memory.Phys_mem.t ->
  dma:Bus.Dma_engine.t ->
  config:Nic_config.t ->
  contexts:int ->
  dma_context_base:int ->
  notify:(ctx:int -> unit) ->
  on_fault:(ctx:int -> Dp.dir -> Dp.fault -> unit) ->
  fire:(unit -> unit) ->
  t

val dp : t -> Dp.t

(** The mailbox firmware, present iff the configuration has a
    [firmware_delay]. *)
val firmware : t -> Firmware.t option

(** Expose datapath and coalescer gauges under [labels] (e.g.
    [[("nic", "nic0")]]), plus the mailbox gauges and
    [firmware.events_processed] when the NIC has firmware. *)
val register_metrics :
  t -> Sim.Metrics.t -> labels:(string * string) list -> unit
