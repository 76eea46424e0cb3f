(** Structured event tracing.

    Tracing is off by default and every emit point first checks
    {!enabled}, so datapath code can trace freely. Each record carries
    the simulated timestamp, a subsystem tag (its Chrome [cat]), a name,
    a phase (instant, or a complete slice with duration),
    a [pid]/[tid] pair locating it on the timeline, and typed arguments.

    Conventions used across the simulator:
    - [pid] 0 is the hypervisor / host machinery; domain [d] maps to
      [pid = d + 1]. {!Recorder.set_process_name} labels them in the UI.
    - [tid] disambiguates within a process: scheduler entity id, NIC
      hardware context, DMA context.
    - Well-known tags: ["sched"] (CPU slices), ["hypercall"], ["dma"],
      ["irq"] (physical and virtual interrupt deliveries), plus one tag
      per NIC instance for datapath events.

    Sinks: {!formatter_sink} prints human-readable lines; {!Recorder}
    accumulates events and exports Chrome [trace_event] JSON loadable in
    [about://tracing] or {{:https://ui.perfetto.dev}Perfetto}. *)

type arg =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type phase =
  | Instant
  | Complete of Time.t  (** a finished slice carrying its duration *)

type event = {
  time : Time.t;
  tag : string;
  name : string;
  phase : phase;
  pid : int;
  tid : int;
  args : (string * arg) list;
}

type sink = event -> unit

(** [set_sink (Some f)] enables tracing through [f]; [None] disables.

    The sink is per-OS-domain state: setting a sink on one
    domain does not affect events emitted from another, so testbeds
    running at the same time on different domains can each record under
    their own recorder. Code that never spawns domains sees the old
    global-ref behavior unchanged. *)
val set_sink : sink option -> unit

(** True when a sink is installed: guard for emit sites that build
    argument lists. *)
val enabled : unit -> bool

val instant :
  ?pid:int ->
  ?tid:int ->
  ?args:(string * arg) list ->
  time:Time.t ->
  tag:string ->
  string ->
  unit

(** [complete ~time ~dur ~tag name] records a finished slice that started
    at [time] and ran for [dur]. *)
val complete :
  ?pid:int ->
  ?tid:int ->
  ?args:(string * arg) list ->
  time:Time.t ->
  dur:Time.t ->
  tag:string ->
  string ->
  unit

(** [emit ~time ~tag msg] sends a free-text instant record. [msg] is lazy
    so formatting costs nothing when disabled. *)
val emit : time:Time.t -> tag:string -> (unit -> string) -> unit

(** A sink that prints ["\[time\] tag: name (dur) k=v"] lines. *)
val formatter_sink : Format.formatter -> sink

(** Event recorder with Chrome [trace_event] export. *)
module Recorder : sig
  type t

  (** [create ()] — at most 2M events are kept; later events are counted
      in {!dropped}. *)
  val create : unit -> t

  val sink : t -> sink
  val count : t -> int
  val dropped : t -> int

  (** Label [pid] in the trace viewer (emitted as "M"-phase metadata). *)
  val set_process_name : t -> pid:int -> string -> unit

  val to_chrome_string : t -> string
end
