(** A simulated Horus world: event engine, network, metrics, address
    allocation, and the rendezvous (resource-location) service.
    Deterministic in its seed. *)

open Horus_msg
open Horus_hcpi

type t

val create : ?config:Horus_sim.Net.config -> ?seed:int -> unit -> t
(** Also registers the layer library into the HCPI registry. *)

val engine : t -> Horus_sim.Engine.t
val net : t -> Horus_sim.Net.t

val metrics : t -> Horus_obs.Metrics.t
(** The world's metrics registry: per-layer HCPI crossing counters
    (from every stack in the world), the engine's dispatch-delay
    histogram, and — after {!metrics_json} — the network's wire
    stats. *)

val metrics_json : t -> Horus_obs.Json.t
(** Deterministic snapshot of the registry (exports the network wire
    stats and any registered exporters first). Two same-seed runs of
    the same workload serialize to byte-identical JSON. *)

val add_metrics_exporter : t -> (Horus_obs.Metrics.t -> unit) -> unit
(** Register a function run at every {!metrics_json} snapshot, for
    subsystems (transport backends, the net) that keep their stats
    outside the registry. Run in registration order. *)

val prng : t -> Horus_util.Prng.t
(** The world's deterministic generator, for seeded workloads. *)

val now : t -> float

val fresh_endpoint_addr : t -> Addr.endpoint
val fresh_group_addr : t -> Addr.group

val claim_endpoint_addr : t -> Addr.endpoint -> Addr.endpoint
(** Pin an endpoint address chosen by the caller (deployments use
    ranks agreed across processes); bumps the fresh allocator past
    it. *)

val rendezvous : t -> Layer.rendezvous
(** Coordinators of live partitions, per group; crashed announcers are
    invisible. *)

val storage : t -> Layer.storage
(** Simulated stable storage (append-only logs by key); survives
    crashes by construction. *)

val run : ?max_events:int -> t -> unit
(** Run to quiescence. Beware: stacks with periodic timers never
    quiesce; prefer {!run_until} / {!run_for}. *)

val run_until : ?max_events:int -> t -> time:float -> unit
val run_for : ?max_events:int -> t -> duration:float -> unit
val at : t -> time:float -> (unit -> unit) -> unit
val after : t -> delay:float -> (unit -> unit) -> unit
