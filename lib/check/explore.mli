(** Bounded systematic exploration of dispatch schedules.

    Enumerates the Engine chooser's choice tree for one scenario by
    stateless depth-bounded DFS (re-running the deterministic scenario
    per prefix; choice 0 past the prefix). Stops at the first
    invariant violation and returns the failing scenario with its
    schedule made concrete, ready for {!Shrink} and {!Repro}. *)

type config = {
  horizon : float;     (** chooser window, seconds *)
  width : int;         (** max candidates per choice point *)
  from_time : float;   (** chooser active from traffic start + this *)
  depth : int;         (** branch only in the first [depth] choice points *)
  max_runs : int;
}

val default_config : config

type stats = {
  runs : int;
  distinct : int;   (** distinct outcome fingerprints seen *)
  truncated : bool; (** stopped by [max_runs] *)
}

type outcome = {
  found : (Scenario.t * Runner.result) option;
  stats : stats;
}

val explore : ?config:config -> ?fastpath:bool -> Scenario.t -> outcome
(** Any [sched] already on the scenario is replaced by the explorer's.
    [fastpath] runs every schedule with the fused fast path enabled;
    outcomes (and so [stats.distinct]) must match a plain exploration
    — asserted by test/test_fastpath.ml. *)
