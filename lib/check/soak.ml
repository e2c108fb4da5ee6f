(* Invariant-checked soak runs: a long chaos-transport run with the
   shared invariants checked continuously while traffic flows, not
   just at the end.

   A soak is configured, not scripted: a stack spec, a member count, a
   chaos profile and a cast budget expand deterministically into a
   Scenario (round-robin casts on a fixed period), which runs through
   the ordinary Runner — so a soak that fails leaves behind a repro
   file any replayer can re-execute, and a soak that passes is exactly
   reproducible from (config, seed). While the run is live, a slice
   timer snapshots every member's observations and checks the
   prefix-safe invariants (view agreement, per-origin FIFO,
   delivery-in-view: true of every prefix of a correct run); the
   completeness-style invariants, which only hold once traffic has
   quiesced, run once at the end via the Runner's standard bundle. *)

module Json = Horus_obs.Json

type config = {
  c_name : string;
  c_spec : string;
  c_n : int;
  c_seed : int;
  c_profile : Horus_transport.Chaos.profile;
  c_latency : float;
  c_casts : int;
  c_cast_period : float;
  c_duration : float;
  c_check_every : float;
  c_settle : float;
  c_quiesce : float;
  c_churn : int;
}

let default_config =
  { c_name = "soak";
    c_spec = "TOTAL:MBRSHIP:FRAG:NAK:COM";
    c_n = 4;
    c_seed = 1;
    c_profile = Horus_transport.Chaos.default;
    c_latency = 0.001;
    c_casts = 1000;
    c_cast_period = 0.005;
    c_duration = 0.0;
    c_check_every = 0.25;
    c_settle = 2.0;
    c_quiesce = 3.0;
    c_churn = 0 }

(* The deterministic expansion: cast i issues from member [i mod n] at
   [i * period], truncated by the duration cap when one is set. The
   scenario IS the soak — emitting it as a repro file reproduces the
   run bit-for-bit (minus the online checks, which never change
   behaviour). *)
let scenario_of_config c =
  if c.c_n < 1 then invalid_arg "Soak: n must be >= 1";
  if c.c_casts < 0 then invalid_arg "Soak: casts must be >= 0";
  if c.c_cast_period <= 0.0 then invalid_arg "Soak: cast_period must be positive";
  if c.c_churn < 0 then invalid_arg "Soak: churn must be >= 0";
  if c.c_churn > 0 && 2 * c.c_churn >= c.c_n then
    invalid_arg "Soak: churn needs a stable core (2 * churn < n)";
  (* With churn, only the stable core casts: the churned identities are
     the last 2*churn member indices (see below), and a leaver's pending
     casts would otherwise race its own departure. *)
  let core = c.c_n - (2 * c.c_churn) in
  let ops =
    List.filter_map
      (fun i ->
         let at = float_of_int i *. c.c_cast_period in
         if c.c_duration > 0.0 && at > c.c_duration then None
         else Some { Scenario.op_member = i mod core; op_at = at; op_pad = 0 })
      (List.init c.c_casts Fun.id)
  in
  let last_at = List.fold_left (fun acc o -> Float.max acc o.Scenario.op_at) 0.0 ops in
  (* Membership churn: [c_churn] members (indices core..core+churn-1)
     leave gracefully and a DISTINCT [c_churn] members (the last churn
     indices) sit out the initial wave and join late, interleaved
     across the traffic span. The two sets never overlap: reliable
     pair lanes deliberately survive view changes, so a returning
     endpoint must be a fresh incarnation — at the scenario level a
     leaver never comes back under the same identity. *)
  let faults =
    if c.c_churn = 0 then []
    else
      let span = Float.max last_at c.c_cast_period in
      let step = span /. float_of_int (c.c_churn + 1) in
      List.concat
        (List.init c.c_churn (fun x ->
             let at = step *. float_of_int (x + 1) in
             [ { Scenario.f_at = at; f_fault = Scenario.Leave (core + x) };
               { Scenario.f_at = at +. (step /. 2.0);
                 f_fault = Scenario.Join (core + c.c_churn + x) } ]))
  in
  Scenario.make ~name:c.c_name ~seed:c.c_seed
    ~net:{ Scenario.default_net with Scenario.latency = c.c_latency }
    ~chaos:c.c_profile ~settle:c.c_settle ~ops ~faults
    ~run_for:(last_at +. c.c_quiesce)
    ~spec:c.c_spec ~n:c.c_n ()

type report = {
  rp_scenario : Scenario.t;
  rp_casts : int;                  (* casts the schedule issued *)
  rp_checks : int;                 (* online slices checked *)
  rp_online : (float * Invariant.violation) list;
      (* first slice's violations, with the virtual time of the check *)
  rp_final : Invariant.violation list;
  rp_outcome_fingerprint : int64;
  rp_metrics_fingerprint : int64;
  rp_metrics : Json.t;
  rp_elapsed : float;              (* virtual seconds, whole run *)
  rp_repro : string option;        (* repro path, when a violation was saved *)
}

let ok r = r.rp_online = [] && r.rp_final = []

(* Under churn, per-origin FIFO is excluded from the online slice: it
   asserts a gap-free prefix from cast 0, which a late joiner misses
   by construction. View agreement (same view id => same membership)
   and delivery-in-view stay exact — same split the Runner applies to
   the final bundle. *)
let prefix_violations ~churn obs =
  Invariant.view_agreement obs
  @ (if churn then [] else Invariant.per_origin_fifo ~tag:Runner.tag obs)
  @ Invariant.delivery_in_view ~tag:Runner.tag obs

let run ?repro_dir ?(fastpath = false) c =
  let sc = scenario_of_config c in
  let checks = ref 0 in
  let online = ref [] in
  let metrics = ref Json.Null in
  let elapsed = ref 0.0 in
  let observe world snapshot =
    let t_end = Horus.World.now world +. sc.Scenario.run_for in
    if c.c_check_every > 0.0 then begin
      let rec arm t =
        if t < t_end then
          Horus.World.at world ~time:t (fun () ->
              incr checks;
              if !online = [] then
                online :=
                  List.map
                    (fun v -> (Horus.World.now world, v))
                    (prefix_violations ~churn:(c.c_churn > 0) (snapshot ()));
              arm (t +. c.c_check_every))
      in
      arm (Horus.World.now world +. c.c_check_every)
    end;
    (* The metrics image is read at the very end of the run, from
       inside it: the runner owns the world and does not return it. *)
    Horus.World.at world ~time:t_end (fun () ->
        metrics := Horus.World.metrics_json world;
        elapsed := Horus.World.now world)
  in
  let r = Runner.run ~fastpath ~observe sc in
  let failed = !online <> [] || r.Runner.r_violations <> [] in
  let repro =
    if failed then Repro.save ?dir:repro_dir { sc with Scenario.expect_violation = true }
    else None
  in
  { rp_scenario = sc;
    rp_casts = List.length sc.Scenario.ops;
    rp_checks = !checks;
    rp_online = !online;
    rp_final = r.Runner.r_violations;
    rp_outcome_fingerprint = Runner.fingerprint r;
    rp_metrics_fingerprint = Campaign.fingerprint !metrics;
    rp_metrics = !metrics;
    rp_elapsed = !elapsed;
    rp_repro = repro }

let to_json r =
  Json.Obj
    [ ("scenario", Scenario.to_json r.rp_scenario);
      ("ok", Json.Bool (ok r));
      ("casts", Json.Int r.rp_casts);
      ("checks", Json.Int r.rp_checks);
      ( "online_violations",
        Json.List
          (List.map
             (fun (at, v) ->
                Json.Obj
                  [ ("at", Json.Float at);
                    ("property", Json.String v.Invariant.v_property);
                    ("detail", Json.String v.Invariant.v_detail) ])
             r.rp_online) );
      ("final_violations", Invariant.to_json r.rp_final);
      ("outcome_fingerprint", Json.String (Printf.sprintf "%016Lx" r.rp_outcome_fingerprint));
      ("metrics_fingerprint", Json.String (Printf.sprintf "%016Lx" r.rp_metrics_fingerprint));
      ("elapsed_virtual", Json.Float r.rp_elapsed);
      ( "repro",
        match r.rp_repro with None -> Json.Null | Some p -> Json.String p );
      ("metrics", r.rp_metrics) ]

(* Cell [i] of a campaign: the seed offset by the cell index. *)
let cell ?repro_dir ?fastpath ~shards c i =
  run ?repro_dir ?fastpath
    { c with c_seed = c.c_seed + i; c_name = Campaign.cell_name ~shards c.c_name i }

(* A soak cell's key carries both fingerprints, so a double run
   compares the outcome as well as the metrics image; a one-cell
   campaign's combined fingerprint is the metrics fingerprint. *)
let campaign =
  { Campaign.ok;
    fingerprint = (fun r -> r.rp_metrics_fingerprint);
    key =
      (fun r ->
         Printf.sprintf "%016Lx:%016Lx" r.rp_outcome_fingerprint r.rp_metrics_fingerprint);
    to_json }
