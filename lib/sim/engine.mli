(** Discrete-event simulation engine.

    A single-threaded event loop over simulated {!Time.t}. Events scheduled
    for the same instant fire in scheduling order (FIFO), which makes runs
    deterministic. Every scheduled event fires: event callbacks may
    schedule further events, and nothing withdraws one. *)

type t

(** [create ()] makes an empty engine. [max_pending] caps concurrently
    pending events (default [2^24]); a schedule beyond the cap raises
    [Invalid_argument] leaving every counter and the queue untouched. *)
val create : ?max_pending:int -> unit -> t

(** Current simulated time. *)
val now : t -> Time.t

(** [schedule t ~delay fn] runs [fn] at [now t + delay].
    @raise Invalid_argument if [delay] is negative. *)
val schedule : t -> delay:Time.t -> (unit -> unit) -> unit

(** [schedule_at t time fn] runs [fn] at absolute [time].
    @raise Invalid_argument if [time] is in the past. *)
val schedule_at : t -> Time.t -> (unit -> unit) -> unit

(** [run t ~until] fires events in order until the queue empties or the next
    event is strictly after [until]; time then advances to [until]. *)
val run : t -> until:Time.t -> unit

(** [run_to_completion ?limit t] fires events until none remain, or [limit]
    events have fired. Returns [`Completed] or [`Event_limit]. *)
val run_to_completion : ?limit:int -> t -> [ `Completed | `Event_limit ]

(** Expose the engine's counters as gauges: [engine.pending] (events
    scheduled but not yet fired) and [engine.fired]. *)
val register_metrics : t -> Metrics.t -> unit
