(** Simulated best-effort datagram network (property P1 only).

    Nodes are integer ids. Packets can be delayed, dropped, duplicated,
    garbled and reordered; the node set can be partitioned; nodes can
    crash. All behaviour is deterministic from the seed. *)

type config = {
  latency : float;        (** base one-way latency, seconds *)
  jitter : float;         (** uniform extra latency in [0, jitter) *)
  drop_prob : float;
  duplicate_prob : float;
  garble_prob : float;    (** probability of flipping one payload byte *)
  mtu : int;              (** larger packets are dropped *)
}

val default_config : config

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable garbled : int;
  mutable duplicated : int;
  mutable oversize : int;
  mutable bytes_sent : int;
}

type t

val create : ?config:config -> ?seed:int -> Engine.t -> t

val engine : t -> Engine.t
val config : t -> config
val stats : t -> stats

val export_metrics : t -> Horus_obs.Metrics.t -> unit
(** Mirror the wire stats into [net.*] counters of the registry.
    Snapshot-time export: call it just before serializing the
    registry. *)

val attach : t -> node:int -> (src:int -> Bytes.t -> unit) -> unit
(** Register the receive handler for a node. *)

val detach : t -> node:int -> unit

val send : t -> src:int -> dst:int -> Bytes.t -> unit
(** Best-effort unicast; delivery is scheduled on the engine. *)

val crash : t -> node:int -> unit
(** A crashed node neither sends nor receives. *)

val recover : t -> node:int -> unit
val is_crashed : t -> node:int -> bool

val partition : t -> int list list -> unit
(** [partition t groups] isolates each group; unlisted nodes form the
    default partition. Replaces any previous partition. *)

val heal : t -> unit
val connected : t -> int -> int -> bool

val set_tap : t -> (src:int -> dst:int -> Bytes.t -> unit) option -> unit
(** Promiscuous wiretap: sees every packet put on the wire, before
    loss or garbling. For eavesdropping demos and debugging. *)

val set_link_latency : t -> src:int -> dst:int -> float option -> unit
(** Override the one-way latency of a single directed link ([None]
    restores the default). For targeted race scenarios. *)
