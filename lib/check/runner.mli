(** Execute a {!Scenario} in a fresh world and check the shared
    invariants. Deterministic: the same scenario always produces the
    same {!result}, down to {!to_string} bytes. *)

val tag : char
(** Payload tag for runner-issued casts (['o'], as in
    ["o<member>-<k>"]). *)

type result = {
  r_scenario : Scenario.t;
  r_obs : Invariant.obs list;         (** one per member, by index *)
  r_violations : Invariant.violation list;
  r_choice_points : int;              (** chooser decisions taken *)
  r_arities : int list;               (** arity per choice point, oldest first *)
  r_taken : int list;                 (** decision per choice point, oldest first *)
}

val run :
  ?fastpath:bool ->
  ?observe:(Horus.World.t -> (unit -> Invariant.obs list) -> unit) ->
  Scenario.t -> result
(** Joins [n] members (spaced by [join_spacing]), settles, then plays
    the op and fault schedules relative to the traffic origin, with
    the Engine chooser installed when [sched] is present. Violations
    are {!Invariant.standard} (plus total order iff the spec contains
    TOTAL).

    With a [chaos] section in the scenario, the group runs over the
    real-transport waist — per-member loopback backends behind one
    {!Horus_transport.Chaos} controller seeded from the scenario seed
    — instead of the simulator net; Partition/Heal faults become
    chaos-level one-way blocks and link overrides / dispatch choosers
    do not apply.

    [observe] is called once after the schedules are planted and
    before time runs, with the world and a snapshot function returning
    the members' observations as of the moment it is called — the hook
    for the soak harness's online invariant checks. *)

val failed : result -> bool

(** {1 Recording a member} *)

type recorder
(** A member's deliveries (payload, view epoch) and installed views. *)

val attach : Horus.Group.t -> recorder
(** Record from now on (installs the group's up-call handler). *)

val delivered : recorder -> int
(** Casts recorded so far. *)

val observation :
  member:int -> ?crashed:bool -> ?left:bool -> recorder -> Horus.Group.t ->
  Invariant.obs
(** The member's observations as of now: the recording plus the
    group's exit status and current view. *)

val sent_of : Scenario.t -> int -> int
(** How many casts the scenario's schedule issues from a member. *)

val outcome_json : result -> Horus_obs.Json.t
(** Observations + violations only — independent of how the dispatch
    schedule was specified. This is what {!fingerprint} hashes. *)

val to_json : result -> Horus_obs.Json.t
val to_string : result -> string
(** Indented, deterministic JSON of the whole run (scenario,
    observations, violations, chooser trace). *)

val fingerprint : result -> int64
(** FNV-1a of the canonical JSON — an outcome fingerprint. *)
