(** The hierarchical churn soak — the acceptance experiment for
    scaling membership past one flat group, and (ungraceful mode) the
    crash-fault campaign that holds failover to a bound.

    [h_endpoints] members split into [h_subgroups] sub-groups, each
    running [HIER(parent,sub):<h_spec>] over a grid of shared loopback
    sockets multiplexed by {!Horus.Transport_link} (socket [s] hosts
    member [s] of every sub-group; sub-group [j] is rotated [j] slots
    so every representative — the sub-group's oldest member — sits on
    a distinct socket and can also join the parent group). A
    {!Horus_dir.Dir_service} on its own socket tracks every live
    member under a lease, through one shared {!Horus_dir.Dir_client}
    per socket riding the reserved directory gid; with
    [h_dir_replicas] > 0 the service is primary/backup replicated and
    the clients fail over through the ring.

    Graceful waves remove the youngest [h_wave_fraction] of every
    sub-group, require re-convergence within [h_converge_bound]
    virtual seconds, drive a parent-group cast burst, rejoin the
    leavers and require convergence again. Ungraceful waves crash
    instead: the youngest quarter plus [h_kill_coordinators] sub-group
    coordinators die without a goodbye (suspicion is scripted after
    [h_detect_delay]), each beheaded sub-group must re-bridge its new
    coordinator into the parent within [h_rebridge_bound] of the kill,
    and at [h_kill_dir_wave] the directory primary is killed mid-wave
    and a backup must promote. The run is held to: every phase
    converged, every surviving parent member delivered every cast
    issued while it was bridged, every re-bridge within bound, lease
    evictions exactly equal to the bindings crashes abandoned,
    [nak.retransmits] under [h_nak_ceiling], and directory bindings
    equal to the union of installed views. Runs are a pure function of
    the config: {!report.r_fingerprint} is the CI double-run
    determinism gate. *)

type config = {
  h_name : string;
  h_endpoints : int;       (** total population *)
  h_subgroups : int;       (** must not exceed the sub-group size ceiling *)
  h_seed : int;
  h_spec : string;         (** sub-group stack below HIER, top first *)
  h_latency : float;       (** loopback hub latency, seconds *)
  h_join_spacing : float;  (** settle after each join *)
  h_op_gap : float;        (** gap between leaves/kills within a wave *)
  h_settle : float;        (** settle after setup, before the waves *)
  h_waves : int;
  h_wave_fraction : float; (** youngest fraction of each sub-group churned *)
  h_casts_per_wave : int;  (** parent-group casts per wave *)
  h_lease : float;         (** directory lease, seconds *)
  h_converge_bound : float;(** per-phase view-convergence budget *)
  h_check_every : float;   (** convergence poll slice *)
  h_nak_ceiling : int;     (** whole-run [nak.retransmits] budget *)
  h_ungraceful : bool;     (** waves crash instead of leave *)
  h_kill_coordinators : int; (** coordinators killed per ungraceful wave *)
  h_detect_delay : float;  (** crash -> scripted suspicion *)
  h_rebridge_bound : float;(** kill -> parent re-bridged budget *)
  h_dir_replicas : int;    (** directory backups behind the primary *)
  h_kill_dir_wave : int;   (** wave that kills the dir primary; -1 never *)
}

val default_config : config
(** The M4 acceptance shape: 1000 endpoints in 32 sub-groups, 3
    graceful waves churning the youngest quarter, seed 7. *)

val ci_config : config
(** The bounded CI shape: 256 endpoints in 8 sub-groups, 2 waves. *)

val m5_config : config
(** The M5 acceptance shape: the M4 population driven through 3
    ungraceful waves — 9 coordinators and the directory primary
    (2 backups behind it) killed along the way. *)

val m5_ci_config : config
(** The bounded M5 CI shape: 256 endpoints in 8 sub-groups, 2
    ungraceful waves, 4 coordinators plus the directory primary. *)

type wave_report = {
  w_index : int;
  w_kind : string;          (** ["leave"], ["kill"] or ["rejoin"] *)
  w_members : int;          (** members churned in this phase *)
  w_converge : float option;(** virtual seconds to convergence; [None]
                                = bound exceeded *)
}

type report = {
  r_name : string;
  r_mode : string;          (** ["graceful"] or ["ungraceful"] *)
  r_endpoints : int;
  r_subgroups : int;
  r_sockets : int;          (** the shared-socket grid width *)
  r_setup_converge : float option;
  r_waves : wave_report list;
  r_parent_casts : int;     (** deliveries expected of a never-replaced member *)
  r_parent_delivered : int list;
  r_parent_lost : int;      (** casts dead representatives never saw *)
  r_killed : int;           (** endpoints crashed across all waves *)
  r_killed_coordinators : int;
  r_rebridge : (int * float) list;
  (** per beheaded sub-group: kill -> full representative view, seconds *)
  r_rebridge_bound : float;
  r_nak_retransmits : int;
  r_unknown_gid : int;      (** in-flight frames for just-left gids *)
  r_dir_versions : (int * int) list;
  r_dir_match : bool;       (** directory == union of installed views *)
  r_dir_notifies : int;
  r_dir_evictions : int;    (** must equal the abandoned-binding count *)
  r_dir_replicas : int;
  r_dir_promotions : int;   (** backup promotions across the replica set *)
  r_dir_epoch : int;        (** serving primary's incarnation at exit *)
  r_dir_failovers : int;    (** client replica advances *)
  r_dir_redirects : int;    (** client [Not_primary] redirects honoured *)
  r_violations : string list;
  r_elapsed : float;        (** virtual seconds *)
  r_fingerprint : int64;    (** {!Campaign.fingerprint} of the canonical report *)
}

val run : config -> report
(** Execute the soak; raises [Invalid_argument] on a config whose grid
    cannot host the representatives on distinct sockets, or whose kill
    schedule would behead sub-group 0 (the anchor that re-bridges the
    rest). *)

val ok : report -> bool
(** No violations. *)

val to_json : report -> Horus_obs.Json.t

(** {1 As a campaign} *)

val cell : shards:int -> config -> int -> report
(** Cell [i] of a [shards]-cell {!Campaign}: the config with its seed
    offset by [i], named by {!Campaign.cell_name}. *)

val campaign : report Campaign.t
(** A cell's key is its [r_fingerprint] (hex); a one-cell campaign's
    combined fingerprint is [r_fingerprint]. *)
