(** Discrete-event simulation engine.

    Time is a float in seconds. Events at equal times fire in
    scheduling order, making runs deterministic. *)

type t

type handle
(** Cancellation handle for a scheduled event. *)

exception Budget_exhausted of int
(** Raised by {!run}/{!run_until} when the event budget is hit — a
    guard against runaway protocols. *)

val create : ?metrics:Horus_obs.Metrics.t -> unit -> t
(** With [metrics], the engine records an [engine.dispatch_delay_s]
    histogram (simulated seconds between scheduling and execution of
    each event — deterministic in the seed) plus
    [engine.events_executed] / [engine.events_cancelled] counters. *)

val now : t -> float
(** Current simulated time. *)

val executed : t -> int
(** Number of events executed so far. *)

val pending : t -> int
(** Number of events still queued. *)

val until_next : t -> now:float -> float
(** Seconds from [now] to the firing time of the earliest queued event
    (negative when it is already due), [infinity] when the queue is
    empty. Cancelled events are included (an early wake-up is
    harmless); real-time drivers use this to size their sleep, and it
    allocates no option. *)

val schedule_at : t -> time:float -> (unit -> unit) -> handle
(** Schedule a thunk at an absolute time (must not be in the past). *)

val schedule : t -> delay:float -> (unit -> unit) -> handle
(** Schedule a thunk after a relative delay (must be non-negative). *)

val cancel : handle -> unit
(** Cancelled events are skipped when their time arrives. *)

val cancelled : handle -> bool

val step : t -> bool
(** Execute the next event; [false] when the queue is empty. *)

(** {2 Schedule adversary}

    Systematic testing hooks (see [lib/check]): a chooser lets an
    adversary pick which of several near-simultaneous events fires
    next, modelling the real nondeterminism of timer and network
    timing while keeping every choice sequence replayable. Without a
    chooser the engine behaves exactly as before. *)

type candidate = {
  c_time : float;  (** scheduled firing time of the candidate *)
  c_seq : int;     (** its scheduling sequence number (stable id) *)
}

val set_chooser :
  ?horizon:float -> ?width:int -> ?from:float ->
  t -> (now:float -> candidate array -> int) -> unit
(** [set_chooser t f] routes dispatch through [f]: whenever at least
    two live events fall within [horizon] (default 2 ms) of the
    earliest pending event — at most [width] (default 4) of them, and
    only once the earliest event's time reaches [from] — [f] picks the
    index to fire next; the rest are re-queued. Out-of-range indices
    fall back to 0 (the earliest). Executing a deferred event never
    moves time backwards, and {!schedule_at} clamps (rather than
    rejects) absolute times the reordering has overtaken. *)

val clear_chooser : t -> unit

val run : ?max_events:int -> t -> unit
(** Run until quiescence. *)

val run_until : ?max_events:int -> t -> time:float -> unit
(** Run all events with time <= [time]; advances [now] to [time]. *)
