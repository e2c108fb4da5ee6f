(** Stack composition engine: an ordered array of layer instances
    (index 0 on top) driven by one FIFO event queue per stack — the
    paper's event-queue scheduling model. Deterministic; no intra-stack
    concurrency. *)

open Horus_msg

type t

val create :
  engine:Horus_sim.Engine.t ->
  endpoint:Addr.endpoint ->
  group:Addr.group ->
  prng:Horus_util.Prng.t ->
  transport:Layer.transport ->
  rendezvous:Layer.rendezvous ->
  ?storage:Layer.storage ->
  ?fastpath:bool ->
  ?metrics:Horus_obs.Metrics.t ->
  to_app:(Event.up -> unit) ->
  ?to_below:(Event.down -> unit) ->
  (string * Params.t * (Params.t -> Layer.ctor)) list ->
  t
(** [create ... spec] instantiates the layers of [spec] (top first).
    [to_app] receives upcalls leaving the top; [to_below] receives
    downcalls leaving the bottom (defaults to raising — a stack should
    end in a bottom adapter such as COM). With [metrics], every HCPI
    crossing increments an [hcpi.down.<LAYER>] / [hcpi.up.<LAYER>]
    counter (plus [hcpi.to_app] / [hcpi.to_below] for events leaving
    the stack); counters are keyed by layer name, so all stacks over
    one registry accumulate into the same per-layer totals.

    A layer's [handle_up] that raises {!Msg.Truncated} (a header
    popped past the end of a short message) drops that event: the
    stack counts it under [layers.<LAYER>.rejected], as the layer's
    [env.reject] does, and goes on with the next queued event. The
    counter is registered on first use, so a run that rejects nothing
    snapshots as if it did not exist.

    With [fastpath], steady-state casts are fused: when the queue is
    idle and every participating layer has compiled a fused form (see
    {!Layer.fastpath}), a cast crosses the stack as one direct
    closure-pair call, falling back to the full queue on any
    disagreement. Each layer pushes its header onto the application's
    message exactly as on the full path, so the body is copied once,
    into the frame. Fused traffic reports under
    [fastpath.*] metrics instead of the per-crossing [hcpi.*]
    counters. *)

val depth : t -> int

val processed : t -> int
(** Total queue items processed (events executed) — used by the
    layering-overhead benchmarks. *)

val layer_names : t -> string list

val down : t -> Event.down -> unit
(** Application-level downcall; enters at the top. *)

val inject_up : t -> Event.up -> unit
(** Network ingress; enters at the bottom layer. *)

val post : t -> (unit -> unit) -> unit
(** Run a thunk under the stack's event-queue discipline. *)

val focus : t -> string -> Layer.instance option
(** Table 1's focus downcall: a handle on the first layer with the
    given name. *)

val dump : t -> string list
(** Table 1's dump downcall, over all layers. *)

val destroyed : t -> bool

val destroy : t -> unit
(** Stop all layers and deliver U_destroy to the application. *)

val kill : t -> unit
(** Crash semantics: stop all layers without notifying the application
    — a crashed process does not observe its own crash. *)
