(** Conformance sweeps: synthesize well-formed stacks from the
    property algebra, derive each one's contract, and falsify "derived
    properties hold under chaos" end to end.

    The bridge half maps each runnable Table-4 property
    ({!Horus_props.Contract.runnable}) to the {!Invariant} predicates
    that observe it, so any derived [Property.Set.t] compiles into a
    checkable invariant slice. The sweep half generates hundreds of
    distinct stacks (systematic enumeration + seeded random growth),
    runs each through {!Runner} under a small chaos matrix, and on a
    violation shrinks the scenario and classifies the falsified
    property via {!Horus_props.Contract.blame}. *)

val check_property :
  props:Horus_props.Property.Set.t ->
  Runner.result ->
  Horus_props.Property.t ->
  Invariant.violation list
(** The property -> invariant bridge: evaluate one runnable property
    against a finished run (empty list for non-runnable properties).
    [props] is the stack's full derived contract: P12's meaning
    depends on it — gap-free complete delivery of the padded stream
    when reliable FIFO (P4) is also promised, reassembly integrity
    alone over a best-effort stack where loss is within contract. P5
    is held to its per-origin FIFO necessary condition — full
    causality is not observable from delivery logs alone. *)

val check_slice :
  props:Horus_props.Property.Set.t ->
  Runner.result ->
  Horus_props.Property.t list ->
  (Horus_props.Property.t * Invariant.violation list) list
(** Evaluate a contract slice; only falsified properties appear. *)

(** {1 Synthesized stacks} *)

type stack = {
  st_spec : string;  (** "TOTAL:...:COM" *)
  st_layers : Horus_props.Layer_spec.t list;  (** top-first *)
  st_props : Horus_props.Property.Set.t;  (** the derived contract *)
  st_slice : Horus_props.Property.t list;  (** its runnable part *)
}

val stack_of_layers : Horus_props.Layer_spec.t list -> stack option
(** [None] when the stack is ill-formed over a {P1} net or its
    contract has no runnable part. *)

val generate : seed:int -> count:int -> max_depth:int -> stack list
(** Distinct well-formed stacks with non-empty runnable contracts:
    systematic [Search.enumerate] over a spread of requirement sets
    first, topped up by seeded random bottom-up growth (its own
    splitmix64 stream — a pure function of [seed]). Only layers
    present in the HCPI registry are drawn; DEADLINE (intentionally
    lossy) and LOG (stable storage) are excluded from the
    transparent-extras pool. *)

(** {1 The chaos matrix} *)

val profiles : (string * Horus_transport.Chaos.profile) list
(** ["clean"] (zero probabilities, but still over the chaos-wrapped
    loopback waist), ["drop"] (5% drop, 1% duplication), ["reorder"]
    (10% reorder in a window of 4, 2% delay),
    ["partition-mid-sweep"] (a symmetric partition between the two
    surviving members that opens mid-cast-burst and heals 0.35 s
    later) and ["asym-link"] (member 1's frames toward member 0
    vanish in two flapping one-way windows while the reverse path
    keeps flowing, plus mild delay). The windowed profiles always
    heal well before the run ends, so reliable stacks must recover. *)

val profile_named : string -> Horus_transport.Chaos.profile option

val scenario_of :
  seed:int ->
  profile_name:string ->
  profile:Horus_transport.Chaos.profile ->
  stack ->
  Scenario.t
(** The scenario a stack is held to: 3 members, 3 casts each at
    staggered times; casts padded past the fragmentation threshold
    when the contract includes P12; a mid-traffic crash plus suspicion
    when it includes P15. *)

(** {1 Verdicts and the sweep} *)

type verdict = {
  vd_spec : string;
  vd_profile : string;
  vd_props : Horus_props.Property.Set.t;
  vd_checked : Horus_props.Property.t list;
  vd_fingerprint : int64;  (** Runner outcome fingerprint *)
  vd_violations : (Horus_props.Property.t * Invariant.violation list) list;
  vd_blames : (Horus_props.Property.t * Horus_props.Contract.blame) list;
  vd_shrunk : Scenario.t option;
      (** minimal scenario still falsifying one of the violated
          properties, with [expect_violation] set *)
  vd_repro : string option;  (** where the shrunk repro was saved *)
}

val verdict_ok : verdict -> bool

val run_stack :
  ?save_dir:string ->
  seed:int ->
  profile_name:string ->
  profile:Horus_transport.Chaos.profile ->
  stack ->
  verdict
(** Run one stack under one profile, check its slice, and on failure
    shrink (against "the same falsified properties still falsify") and
    classify. *)

type config = {
  cf_seed : int;
  cf_stacks : int;
  cf_max_depth : int;
  cf_profiles : (string * Horus_transport.Chaos.profile) list;
  cf_save : string option;  (** repro directory for shrunk failures *)
}

val default_config : config
(** seed 11, 100 stacks, depth 5, all three profiles, no save dir. *)

type report = {
  rp_seed : int;
  rp_stacks : int;
  rp_runs : int;
  rp_failures : int;
  rp_verdicts : verdict list;
  rp_fingerprint : int64;
      (** FNV-1a over every verdict's canonical JSON (repro paths
          excluded) — the CI double-run determinism gate compares
          this *)
}

val ok : report -> bool

val sweep : ?progress:(string -> unit) -> config -> report

val verdict_json : verdict -> Horus_obs.Json.t
val report_json : report -> Horus_obs.Json.t

val campaign : report Campaign.t
(** The sweep as a one-cell {!Campaign}, keyed by [rp_fingerprint]. *)
