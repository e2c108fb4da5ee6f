(** Fault injection at the narrow waist: wrap any {!Backend} so its
    sends suffer drops, duplication, bounded reordering,
    distribution-driven delay, single-bit corruption (to be caught by
    the frame CRC) and one-way partitions between peer ranks.

    All randomness comes from one seeded {!Horus_util.Prng} and every
    deferred release rides the shared {!Horus_sim.Engine}, so a
    (profile, seed) pair replays byte-identically under virtual time
    and runs in real time under a wall-clock {!Driver} — the same
    wrapper serves deterministic soak tests and live UDP chaos. *)

type partition = {
  pt_from : int;           (** sender rank *)
  pt_to : int;             (** receiver rank *)
  pt_start : float;        (** seconds after controller creation *)
  pt_stop : float option;  (** heal time; [None] = never heals *)
}
(** A scheduled one-way block: datagrams from [pt_from] to [pt_to]
    vanish while the window is open. Use two entries for a symmetric
    partition. *)

type profile = {
  drop : float;            (** P(datagram vanishes) *)
  duplicate : float;       (** P(an extra copy is sent) *)
  dup_delay : float;       (** duplicate's extra lag, uniform in [0, dup_delay] *)
  reorder : float;         (** P(datagram parks in the holdback queue) *)
  reorder_window : int;    (** later sends that overtake a parked datagram *)
  reorder_flush : float;   (** max parking time, seconds *)
  delay : float;           (** P(forwarding is postponed) *)
  delay_mean : float;      (** exponential mean of the postponement *)
  delay_max : float;       (** clamp on the postponement *)
  corrupt : float;         (** P(one uniformly chosen bit flips) *)
  partitions : partition list;
}

val default : profile
(** Transparent: all probabilities zero, no partitions. *)

val is_quiet : profile -> bool
(** No fault can ever fire (every probability zero, no partitions). *)

type t
(** A chaos controller: one per world/hub, shared by every wrapped
    backend so fault decisions draw from one deterministic stream. *)

type stats = {
  mutable s_forwarded : int;
  mutable s_dropped : int;
  mutable s_duplicated : int;
  mutable s_reordered : int;
  mutable s_delayed : int;
  mutable s_corrupted : int;
  mutable s_blocked : int;
}

val create :
  engine:Horus_sim.Engine.t -> ?peers:Peers.t -> seed:int -> profile -> t
(** [peers] maps backend addresses to ranks; without it partitions
    never match (the probabilistic faults still fire). Profile
    partition windows are timed from the engine clock at creation.
    Raises [Invalid_argument] on probabilities outside [0, 1] or a
    non-positive reorder window. *)

val wrap : ?rank:int -> t -> Backend.t -> Backend.t
(** Interpose on the backend's [send]; everything else (rx, fd, poll,
    stats, close) is the wrapped backend's own. [rank] identifies the
    sender for partition checks; it defaults to looking the backend's
    [local_addr] up in [peers]. *)

val stats : t -> stats

val profile : t -> profile

val block : t -> from_rank:int -> to_rank:int -> unit
(** Open a runtime one-way block (idempotent), on top of whatever the
    profile schedules. *)

val unblock : t -> from_rank:int -> to_rank:int -> unit

val heal : t -> unit
(** Clear every runtime block (profile partitions keep their own
    windows). *)

val is_blocked : t -> from_rank:int -> to_rank:int -> bool

val export_metrics : ?prefix:string -> t -> Horus_obs.Metrics.t -> unit
(** Mirror {!stats} into the registry as [<prefix>.dropped],
    [<prefix>.duplicated], ... counters ([prefix] defaults to
    ["chaos"]); call at snapshot time. *)

val profile_to_json : profile -> Horus_obs.Json.t
val profile_of_json : Horus_obs.Json.t -> (profile, string) result
(** Lenient: missing fields take {!default}'s values. *)

val profile_of_string : string -> (profile, string) result
