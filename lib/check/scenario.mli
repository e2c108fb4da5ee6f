(** A complete, serializable description of one group test run: stack
    spec, group size, network adversary, traffic and fault schedules,
    and optionally a dispatch schedule for the {!Horus_sim.Engine}
    chooser. Scenario + code is a deterministic function — two runs of
    the same scenario are byte-identical — which is what makes
    counterexamples shrinkable and replayable from repro files. *)

type net = {
  latency : float;
  jitter : float;
  drop : float;
  duplicate : float;
  garble : float;
  mtu : int;
}

val default_net : net

val net_config : net -> Horus_sim.Net.config

type fault =
  | Crash of int                 (** member index crashes *)
  | Leave of int                 (** member leaves gracefully *)
  | Join of int
      (** churn: the member sits out the initial join wave and joins
          (contacting member 0) at the fault time instead; member 0 —
          the founder — cannot join late *)
  | Suspect of int * int         (** [Suspect (a, b)]: a suspects b *)
  | Partition of int list list   (** isolate member-index groups *)
  | Heal

type timed_fault = {
  f_at : float;   (** seconds after traffic start *)
  f_fault : fault;
}

type op = {
  op_member : int;  (** who casts *)
  op_at : float;    (** seconds after traffic start *)
  op_pad : int;
      (** extra payload bytes past the canonical form (0 = none) —
          used to push casts over fragmentation thresholds; serialized
          as ["pad"], omitted when zero *)
}
(** Payloads are not stored: the runner derives ["o<member>-<k>"]
    (plus ['+x...] filler when [op_pad > 0]) with [k] the op's rank in
    the member's time-sorted stream, so shrinking ops never creates
    artificial gaps. *)

type sched = {
  s_horizon : float;    (** chooser window, seconds *)
  s_width : int;        (** max candidates per choice point *)
  s_from : float;       (** chooser active from traffic start + this *)
  s_choices : int list; (** decisions; exhausted tail defaults to 0 *)
}

val default_sched : sched

type t = {
  name : string;
  spec : string;
  n : int;
  seed : int;
  net : net;
  chaos : Horus_transport.Chaos.profile option;
      (** with a profile, the runner builds the group over a loopback
          hub wrapped in a {!Horus_transport.Chaos} controller seeded
          from [seed] instead of the simulator net; Partition/Heal
          faults become chaos-level one-way blocks *)
  links : (int * int * float) list;
      (** per-link latency overrides [(src member, dst member, secs)],
          applied at traffic start — how the Figure 2 scenario slows a
          crashed member's in-flight copies down selectively *)
  join_spacing : float;  (** settle time after each join *)
  settle : float;        (** extra settle before traffic starts *)
  ops : op list;
  faults : timed_fault list;
  run_for : float;       (** run this long after traffic start *)
  sched : sched option;
  expect_violation : bool;  (** repro files: the recorded outcome *)
}

val make :
  ?name:string -> ?seed:int -> ?net:net -> ?chaos:Horus_transport.Chaos.profile ->
  ?links:(int * int * float) list ->
  ?join_spacing:float -> ?settle:float -> ?ops:op list -> ?faults:timed_fault list ->
  ?run_for:float -> ?sched:sched -> ?expect_violation:bool ->
  spec:string -> n:int -> unit -> t

val crashed_members : t -> int list
val left_members : t -> int list

val late_members : t -> int list
(** Members with a {!Join} fault (sorted, deduplicated): they sit out
    the initial join wave. *)

val schema : string
(** ["horus-repro/1"] *)

val to_json : t -> Horus_obs.Json.t
val of_json : Horus_obs.Json.t -> (t, string) result
(** [Error] on a malformed field and on a scenario {!Runner.run} would
    raise on: [n] < 1, a spec that does not resolve, a negative
    latency or jitter, [sched.width] < 1, a member index out of
    range. *)

val to_string : t -> string
(** Indented JSON; deterministic. *)

val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit
