(** Structured event tracing.

    Tracing is off by default and every emit point first checks
    {!tag_enabled}, so datapath code can trace freely. Each record carries
    the simulated timestamp, a subsystem tag (its Chrome [cat]), a name,
    a phase (instant, span begin/end, or a complete slice with duration),
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
  | Span_begin
  | Span_end
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

    The sink (and filter) are per-OS-domain state: setting a sink on one
    domain does not affect events emitted from another, so testbeds
    running at the same time on different domains can each record under
    their own recorder. Code that never spawns domains sees the old
    global-ref behavior unchanged. *)
val set_sink : sink option -> unit

val enabled : unit -> bool

(** [set_filter (Some f)] drops events whose tag fails [f]; [None] passes
    every tag. The filter only applies while a sink is installed. *)
val set_filter : (string -> bool) option -> unit

(** True when a sink is installed and [tag] passes the filter: guard for
    emit sites that build argument lists. *)
val tag_enabled : string -> bool

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

val span_begin :
  ?pid:int ->
  ?tid:int ->
  ?args:(string * arg) list ->
  time:Time.t ->
  tag:string ->
  string ->
  unit

val span_end :
  ?pid:int ->
  ?tid:int ->
  ?args:(string * arg) list ->
  time:Time.t ->
  tag:string ->
  string ->
  unit

(** [emit ~time ~tag msg] sends a free-text instant record. [msg] is lazy
    so formatting costs nothing when disabled or filtered out. *)
val emit : time:Time.t -> tag:string -> (unit -> string) -> unit

(** A sink that prints ["\[time\] tag: name (dur) k=v"] lines. *)
val formatter_sink : Format.formatter -> sink

(** Event recorder with Chrome [trace_event] export. *)
module Recorder : sig
  type t

  (** [create ?limit ()] — at most [limit] events are kept (default 2M);
      later events are counted in {!dropped}. *)
  val create : ?limit:int -> unit -> t

  val sink : t -> sink
  val count : t -> int
  val dropped : t -> int
  val events : t -> event list
  val clear : t -> unit

  (** Label [pid] in the trace viewer (emitted as "M"-phase metadata). *)
  val set_process_name : t -> pid:int -> string -> unit

  (** The whole recording as a [{"traceEvents": [...]}] document. Event
      order is emission order, so identically seeded runs are
      byte-identical. *)
  val to_chrome_json : t -> Json.t

  val to_chrome_string : t -> string
end
