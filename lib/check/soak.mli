(** Invariant-checked soak runs: a long chaos-transport run with the
    shared invariants checked continuously while traffic flows.

    A {!config} expands deterministically into a {!Scenario} (chaos
    profile, round-robin cast schedule) executed by the ordinary
    {!Runner} — a failing soak saves an ordinary repro file, a passing
    soak replays bit-for-bit from (config, seed). During the run a
    slice timer checks the prefix-safe invariants (view agreement,
    per-origin FIFO, delivery-in-view) on live snapshots; the
    quiescence-dependent invariants run once at the end through
    {!Invariant.standard}. *)

type config = {
  c_name : string;      (** scenario/repro name *)
  c_spec : string;      (** stack spec, top first *)
  c_n : int;            (** members *)
  c_seed : int;         (** world + chaos seed *)
  c_profile : Horus_transport.Chaos.profile;
  c_latency : float;    (** loopback hub latency, seconds *)
  c_casts : int;        (** cast budget, round-robin across members *)
  c_cast_period : float;(** gap between consecutive casts, seconds *)
  c_duration : float;   (** cap on the traffic phase; 0 = budget only *)
  c_check_every : float;(** online check slice, seconds; 0 = end only *)
  c_settle : float;     (** settle before traffic *)
  c_quiesce : float;    (** drain time after the last cast *)
  c_churn : int;
      (** membership churn: this many members leave gracefully and the
          same number of {e distinct} members join late, interleaved
          across the traffic span; casts come from the stable core
          only. Requires [2 * c_churn < c_n]. Leavers never return:
          pair lanes survive view changes by design, so a comeback
          would need a fresh endpoint incarnation, which the flat
          scenario member array cannot express. 0 = no churn. *)
}

val default_config : config
(** 4 members, the section-7 stack, 1000 casts at 5 ms, quiet chaos
    profile, 250 ms check slices. *)

val scenario_of_config : config -> Scenario.t
(** The deterministic expansion; raises [Invalid_argument] on a
    non-positive member count or cast period, or a churn count with no
    stable core. With churn the runner (and the online slices) hold
    the run to the churn-safe invariant set: gap-free-prefix and
    completeness invariants assume every member saw the stream from
    cast 0, which a late joiner by design did not. *)

type report = {
  rp_scenario : Scenario.t;
  rp_casts : int;
  rp_checks : int;
  rp_online : (float * Invariant.violation) list;
      (** first failing slice's violations, with virtual check time *)
  rp_final : Invariant.violation list;
  rp_outcome_fingerprint : int64;
  rp_metrics_fingerprint : int64;
      (** {!Campaign.fingerprint} of the end-of-run metrics image —
          byte-stable across two runs of the same config *)
  rp_metrics : Horus_obs.Json.t;
  rp_elapsed : float;  (** virtual seconds *)
  rp_repro : string option;
      (** where the repro was saved, when the run failed and a
          directory was configured *)
}

val run : ?repro_dir:string -> ?fastpath:bool -> config -> report
(** Execute the soak. On violation a repro file (with
    [expect_violation] set) is saved to [repro_dir] (default:
    [$HORUS_REPRO_DIR], best-effort). *)

val ok : report -> bool
(** No online or final violations. *)

val to_json : report -> Horus_obs.Json.t

(** {1 As a campaign} *)

val cell : ?repro_dir:string -> ?fastpath:bool -> shards:int -> config -> int -> report
(** Cell [i] of a [shards]-cell {!Campaign}: the config with its seed
    offset by [i], named by {!Campaign.cell_name}. *)

val campaign : report Campaign.t
(** A cell's key is ["<outcome>:<metrics>"] (both fingerprints, hex),
    so a double run compares both; a one-cell campaign's combined
    fingerprint is [rp_metrics_fingerprint]. *)
