(** Wall-clock driver: runs an event engine against real time.

    Anchors engine time to [Unix.gettimeofday] at creation, then
    alternates draining the backends' sockets and firing engine events
    that have come due (flushing any batched backends after each
    pump), sleeping on the backends' file descriptors in between —
    poll(2) via the {!Sysops} stub, so a process may host more than
    FD_SETSIZE sockets, with [Unix.select] as the portable fallback.
    One driver per engine; a sharded deployment runs one driver per
    shard (see {!Shard}). *)

type t

val create :
  ?max_tick:float -> ?min_sleep:float -> ?shards:int ->
  Horus_sim.Engine.t -> Backend.t list -> t
(** [max_tick] (default {!Defaults.max_tick}) caps any single sleep,
    bounding the poll latency of fd-less backends such as loopback.
    [min_sleep] (default {!Defaults.min_sleep}) floors it, so engine
    events stuck in the past
    (e.g. a heavy chaos delay queue) cannot degrade the idle loop into
    a 0-timeout busy spin.

    [shards] (default 1) records which of how many shards this driver
    serves — informational, surfaced by {!shards} for reports. A
    sharded driver's backend is its {!Shard.bypass}, whose [poll]
    drains the inter-shard mailboxes. Mailbox posts cannot wake a
    driver sleeping in poll(2), so sharded drivers should run with a
    small [max_tick]. *)

val shards : t -> int
(** The [shards] value given at creation (1 = unsharded). *)

val sleep_for :
  ?max_wait:float -> max_tick:float -> min_sleep:float -> until_timer:float -> unit ->
  float
(** The idle-step sleep: [until_timer] clamped into
    [[min_sleep, max_tick]], then capped by [max_wait] (which may
    force 0). Pure; exposed for unit tests. *)

val now : t -> float
(** Engine time corresponding to the current wall-clock instant. *)

val pump : t -> int
(** Drain every backend, run all engine events now due, then flush
    each backend; returns messages moved plus events
    fired (0 = idle). *)

val step : ?max_wait:float -> t -> int
(** {!pump}; if idle, sleep until the next timer, a readable socket,
    [max_wait] or [max_tick] — whichever is first — then pump again. *)

val run_until : ?timeout:float -> t -> (unit -> bool) -> bool
(** Step until the predicate holds or [timeout] (default 30 s) wall
    seconds elapse; returns the predicate's final value. *)

val run_for : t -> duration:float -> unit
(** Step for [duration] wall seconds. *)
