(* Conformance: fuzz synthesized stacks against their derived contracts.

   The property algebra (lib/props) predicts what a stack delivers;
   this module holds it to that. A seeded generator synthesizes
   hundreds of distinct well-formed stacks over the Table-3 catalogue,
   [Check.derive] computes each stack's contract, [Contract.slice]
   reduces the contract to the runnable properties, and each stack
   runs end to end through [Runner] under a small chaos matrix with
   exactly that invariant slice checked. A falsified property is
   shrunk to a minimal repro and classified by [Contract.blame] as a
   layer bug or a Table-3 encoding bug. *)

module P = Horus_props.Property
module Layer_spec = Horus_props.Layer_spec
module PCheck = Horus_props.Check
module Search = Horus_props.Search
module Contract = Horus_props.Contract
module Chaos = Horus_transport.Chaos
module Json = Horus_obs.Json

let p1 = P.Set.of_numbers [ 1 ]

(* --- the property -> invariant bridge --- *)

(* Evaluate one runnable property of [res]'s contract. The mapping is
   the bridge the tentpole names: each Table-4 property with a dynamic
   counterpart gets exactly the Invariant predicates that observe it.
   [props] is the full derived contract — a property's observable
   meaning can depend on what else the stack promises. P5 has no sound
   full causality check from delivery logs alone (there are no
   send-event observations), so it is held to its FIFO necessary
   condition. P12's generator-side casts are padded past the
   fragmentation threshold; when the contract also carries reliable
   FIFO (P4) the padded stream must arrive gap-free and complete,
   while over a best-effort stack (P1, no P4 — e.g. NFRAG:COM) loss is
   within contract and only reassembly integrity is checkable. *)
let check_property ~props (res : Runner.result) (p : P.t) : Invariant.violation list =
  let obs = res.Runner.r_obs in
  let tag = Runner.tag in
  let sent = Runner.sent_of res.Runner.r_scenario in
  match p with
  | P.P3_fifo_unicast | P.P4_fifo_multicast ->
    Invariant.per_origin_fifo ~tag obs
    @ Invariant.self_delivery ~tag ~sent obs
    @ Invariant.survivor_completeness ~tag ~sent obs
  | P.P12_large_messages ->
    Invariant.reassembly_integrity ~tag ~sent obs
    @ (if P.Set.mem props P.P4_fifo_multicast then
         Invariant.per_origin_fifo ~tag obs
         @ Invariant.self_delivery ~tag ~sent obs
         @ Invariant.survivor_completeness ~tag ~sent obs
       else [])
  | P.P5_causal -> Invariant.per_origin_fifo ~tag obs
  | P.P6_total_order -> Invariant.total_order obs
  | P.P9_virtually_synchronous ->
    Invariant.virtual_synchrony obs @ Invariant.delivery_in_view ~tag obs
  | P.P15_consistent_views ->
    Invariant.view_agreement obs @ Invariant.final_view_agreement obs
  | _ -> []

let check_slice ~props res slice =
  List.filter_map
    (fun p ->
       match check_property ~props res p with [] -> None | vs -> Some (p, vs))
    slice

(* --- synthesized stacks --- *)

type stack = {
  st_spec : string;           (* "TOTAL:...:COM" *)
  st_layers : Layer_spec.t list;  (* top-first *)
  st_props : P.Set.t;         (* the derived contract *)
  st_slice : P.t list;        (* its runnable part, Table-4 order *)
}

let spec_of_layers layers =
  String.concat ":" (List.map (fun (l : Layer_spec.t) -> l.Layer_spec.name) layers)

let stack_of_layers layers =
  match PCheck.derive ~net:p1 layers with
  | Error _ -> None
  | Ok props ->
    (match Contract.slice props with
     | [] -> None  (* nothing runnable to hold it to *)
     | slice ->
       Some { st_spec = spec_of_layers layers; st_layers = layers;
              st_props = props; st_slice = slice })

(* Layers the generator may use: Table-3 rows with an implementation
   in the HCPI registry, plus property-transparent extras that are
   safe to interpose anywhere. DEADLINE is excluded because it drops
   casts older than its budget by design — correct behaviour that
   still falsifies inherited completeness under chaos delay — and LOG
   because its stable-storage semantics are out of scope for a
   delivery-stream conformance run. *)
let safe_extra_names =
  [ "CHKSUM"; "SIGN"; "ENCRYPT"; "COMPRESS"; "FC"; "TRACE"; "ACCOUNT"; "BATCH";
    "CLOCKSYNC"; "NOOP"; "HIER" ]
(* HIER is transparent within its sub-group but NOT interposable
   anywhere: it requires consistent views beneath it. The grower may
   still draw it anywhere; an ill-placed HIER fails [PCheck.derive]'s
   requires check and the stack is discarded, so only
   HIER-over-membership stacks survive into the sweep. *)

let registered (l : Layer_spec.t) = Horus_hcpi.Registry.mem l.Layer_spec.name

(* Stack synthesis draws from its own splitmix64 stream, so it is a
   pure function of the seed. The stream starts one step past
   [Prng.create seed]: the sweep fingerprints pin that offset. *)
let rng_make seed =
  let r = Horus_util.Prng.create seed in
  ignore (Horus_util.Prng.next_int64 r);
  r

let rng_below r n =
  Int64.to_int (Int64.unsigned_rem (Horus_util.Prng.next_int64 r) (Int64.of_int n))
let rng_chance r permille = rng_below r 1000 < permille

(* Systematic half: enumerate every well-formed stack up to max_depth
   for a spread of requirement sets covering each runnable property
   and a few combinations. Enumeration prunes no-op layers, so this
   half yields the property-changing skeletons. *)
let requirement_seeds =
  [ [ 2 ]; [ 3; 4 ]; [ 12 ]; [ 5 ]; [ 6 ]; [ 9 ]; [ 15 ]; [ 14 ]; [ 16 ];
    [ 3; 4; 12 ]; [ 5; 15 ]; [ 9; 14 ]; [ 6; 9 ]; [ 12; 15 ]; [ 6; 9; 15 ] ]

let systematic ~max_depth =
  let pool = List.filter registered Layer_spec.table3 in
  List.map
    (fun nums ->
       Search.enumerate ~layers:pool ~max_depth ~net:p1
         ~required:(P.Set.of_numbers nums) ())
    requirement_seeds

(* Interleave the per-requirement lists so early seeds don't crowd the
   later ones out of a bounded draw. *)
let round_robin lists =
  let rec go acc = function
    | [] -> List.rev acc
    | lists ->
      let heads, tails =
        List.fold_left
          (fun (hs, ts) -> function
             | [] -> (hs, ts)
             | h :: t -> (h :: hs, t :: ts))
          ([], []) lists
      in
      go (List.rev_append heads acc) (List.rev tails)
  in
  go [] lists

(* Random half: grow a stack bottom-up from COM, at each step drawing
   a Table-3 layer whose requirements the current set meets and whose
   addition changes the set — or, occasionally, one transparent extra.
   Mirrors how an application programmer composes a stack by hand. *)
let random_layers rng ~max_depth =
  let extras_pool =
    List.filter
      (fun (l : Layer_spec.t) -> registered l && List.mem l.Layer_spec.name safe_extra_names)
      Layer_spec.extras
  in
  let has name layers = List.exists (fun (l : Layer_spec.t) -> l.Layer_spec.name = name) layers in
  (* [stack] is top-first (head = layer added last, i.e. topmost);
     [below] is the derived property set above the current top. *)
  let rec grow stack below depth =
    if depth >= max_depth then stack
    else if depth >= 2 && rng_chance rng 250 then stack
    else
      let steps =
        List.filter_map
          (fun (l : Layer_spec.t) ->
             if has l.Layer_spec.name stack || not (registered l) then None
             else
               match PCheck.step below l with
               | Ok above when not (P.Set.equal above below) -> Some (l, above)
               | _ -> None)
          Layer_spec.table3
      in
      let extras = List.filter (fun l -> not (has l.Layer_spec.name stack)) extras_pool in
      if steps = [] && extras = [] then stack
      else if extras <> [] && (steps = [] || rng_chance rng 300) then
        let l = List.nth extras (rng_below rng (List.length extras)) in
        (* transparent: the property set above it is unchanged *)
        grow (l :: stack) below (depth + 1)
      else
        let l, above = List.nth steps (rng_below rng (List.length steps)) in
        grow (l :: stack) above (depth + 1)
  in
  match PCheck.step p1 Layer_spec.com with
  | Error _ -> []
  | Ok above -> grow [ Layer_spec.com ] above 1

(* [generate ~seed ~count ~max_depth]: distinct well-formed stacks
   with a non-empty runnable contract — the systematic enumeration
   first (round-robin across requirement seeds), topped up with random
   growth until [count] stacks or the attempt budget runs out. *)
let generate ~seed ~count ~max_depth =
  Horus_layers.Init.register_all ();
  let seen = Hashtbl.create 97 in
  let out = ref [] in
  let n = ref 0 in
  let take layers =
    if !n < count then
      match stack_of_layers layers with
      | Some st when not (Hashtbl.mem seen st.st_spec) ->
        Hashtbl.add seen st.st_spec ();
        out := st :: !out;
        incr n
      | _ -> ()
  in
  List.iter take (round_robin (systematic ~max_depth));
  let rng = rng_make seed in
  let attempts = ref 0 in
  while !n < count && !attempts < count * 200 do
    incr attempts;
    match random_layers rng ~max_depth with
    | [] -> ()
    | layers -> take layers
  done;
  List.rev !out

(* --- the chaos matrix --- *)

(* "clean" still runs over the chaos-wrapped loopback waist (zero
   probabilities), so every profile exercises the same code path. *)
(* The conformance scenario's clock: 3 joins at 0.4 s spacing, then a
   2 s settle, puts the traffic origin t0 near 3.2 s engine time; the
   cast burst is over by t0 + 0.1. The windowed profiles below are
   phrased against that clock (partition windows are timed from
   controller creation, i.e. engine time 0) and always heal well
   before the 5 s run_for ends, so reliable stacks must recover and
   the sweep stays a falsifier of protocol bugs, not of physics. *)
let profiles =
  [ ("clean", Chaos.default);
    ("drop", { Chaos.default with Chaos.drop = 0.05; duplicate = 0.01 });
    ("reorder",
     { Chaos.default with Chaos.reorder = 0.10; reorder_window = 4; delay = 0.02 });
    (* A full symmetric partition between the two surviving members,
       opening just after the cast burst lands (last cast t0 + 0.08,
       engine time ~3.28) and healing 80 ms later: background drop has
       already torn ~1% of the burst, and the repair rounds for those
       losses now stall mid-partition and must re-request after the
       heal. The window is bracketed on both sides by design: it opens
       after the burst because a cast torn in a full partition with no
       successor traffic is unexposable tail loss (NAK is
       receiver-driven — falsifying physics, not the protocol), and it
       closes well before the scripted suspicion (t0 + 0.3, ~3.5) so
       repair rounds complete and the crash-driven flush — whose view
       install is itself a pair-lane tail message — runs over a healed
       network. *)
    ("partition-mid-sweep",
     { Chaos.default with
       Chaos.drop = 0.01;
       partitions =
         [ { Chaos.pt_from = 0; pt_to = 1; pt_start = 3.3; pt_stop = Some 3.38 };
           { Chaos.pt_from = 1; pt_to = 0; pt_start = 3.3; pt_stop = Some 3.38 } ] });
    (* An asymmetric link: member 1's frames toward member 0 vanish in
       two flapping windows while the reverse direction keeps flowing
       (plus mild delay everywhere) — the classic one-way-degraded
       path that ack/nak protocols must survive without symmetry
       assumptions. The first flap heals two NAK status periods before
       the scripted suspicion (~3.5) so repair completes ahead of the
       flush; the second flap tears post-flush repair traffic and must
       be re-requested when it lifts. *)
    ("asym-link",
     { Chaos.default with
       Chaos.delay = 0.05;
       delay_mean = 0.002;
       delay_max = 0.02;
       partitions =
         [ { Chaos.pt_from = 1; pt_to = 0; pt_start = 3.25; pt_stop = Some 3.38 };
           { Chaos.pt_from = 1; pt_to = 0; pt_start = 3.9; pt_stop = Some 4.1 } ] }) ]

let profile_named name = List.assoc_opt name profiles

(* --- the scenario a stack runs under --- *)

(* Three members, three casts each at staggered times. When the
   contract includes P12 the first member's casts are padded well past
   FRAG's default 1024-byte threshold, so fragmentation actually
   happens. When the contract includes P15 (a membership layer is
   present) the youngest member crashes mid-traffic and is suspected
   shortly after — the scenario shape that exercises view agreement
   and virtual synchrony rather than just steady-state streams. *)
let scenario_of ~seed ~profile_name ~profile (st : stack) =
  let n = 3 in
  let pad = if List.mem P.P12_large_messages st.st_slice then 2600 else 0 in
  let ops =
    List.concat_map
      (fun k ->
         List.init n (fun m ->
             { Scenario.op_member = m;
               op_at = 0.01 *. float_of_int ((k * n) + m);
               op_pad = (if m = 0 then pad else 0) }))
      [ 0; 1; 2 ]
  in
  let faults =
    if List.mem P.P15_consistent_views st.st_slice then
      (* The suspicion trails the crash by ~0.25 s: late enough that
         the windowed profiles below can open after the cast burst,
         heal, and still leave NAK two full status periods (50 ms
         each) to expose and repair torn casts before the flush cuts
         the epoch — repair racing the view change is a physics loss,
         not a protocol bug. *)
      [ { Scenario.f_at = 0.055; f_fault = Scenario.Crash (n - 1) };
        { Scenario.f_at = 0.3; f_fault = Scenario.Suspect (0, n - 1) } ]
    else []
  in
  (* ':' is legal in a POSIX filename but not in a CI artifact path,
     and the scenario name becomes the repro filename. *)
  let flat = String.map (fun c -> if c = ':' then '_' else c) st.st_spec in
  Scenario.make
    ~name:(Printf.sprintf "conformance-%s-%s" profile_name flat)
    ~seed ~chaos:profile ~ops ~faults ~run_for:5.0 ~spec:st.st_spec ~n ()

(* --- verdicts --- *)

type verdict = {
  vd_spec : string;
  vd_profile : string;
  vd_props : P.Set.t;
  vd_checked : P.t list;
  vd_fingerprint : int64;  (* Runner outcome fingerprint *)
  vd_violations : (P.t * Invariant.violation list) list;  (* falsified properties *)
  vd_blames : (P.t * Contract.blame) list;
  vd_shrunk : Scenario.t option;
  vd_repro : string option;  (* saved repro path, when a dir is configured *)
}

let verdict_ok v = v.vd_violations = []

(* One stack under one profile: run, check the slice, and on failure
   shrink against "the same falsified properties still falsify" and
   classify each via re-derivation. *)
let run_stack ?save_dir ~seed ~profile_name ~profile (st : stack) =
  let sc = scenario_of ~seed ~profile_name ~profile st in
  let res = Runner.run sc in
  let violations = check_slice ~props:st.st_props res st.st_slice in
  let blames =
    List.map (fun (p, _) -> (p, Contract.blame ~net:p1 st.st_layers p)) violations
  in
  let shrunk, repro =
    match violations with
    | [] -> (None, None)
    | _ ->
      let bad = List.map fst violations in
      let fails sc' =
        let r = Runner.run sc' in
        List.exists (fun p -> check_property ~props:st.st_props r p <> []) bad
      in
      let small, _stats = Shrink.shrink ~fails sc in
      let small = { small with Scenario.expect_violation = true } in
      (Some small, Repro.save ?dir:save_dir small)
  in
  { vd_spec = st.st_spec; vd_profile = profile_name; vd_props = st.st_props;
    vd_checked = st.st_slice; vd_fingerprint = Runner.fingerprint res;
    vd_violations = violations; vd_blames = blames; vd_shrunk = shrunk;
    vd_repro = repro }

(* --- the sweep --- *)

type config = {
  cf_seed : int;
  cf_stacks : int;
  cf_max_depth : int;
  cf_profiles : (string * Chaos.profile) list;
  cf_save : string option;
}

let default_config =
  { cf_seed = 11; cf_stacks = 100; cf_max_depth = 5; cf_profiles = profiles;
    cf_save = None }

type report = {
  rp_seed : int;
  rp_stacks : int;        (* distinct stacks generated *)
  rp_runs : int;          (* stack x profile runs *)
  rp_failures : int;      (* verdicts with violations *)
  rp_verdicts : verdict list;
  rp_fingerprint : int64; (* FNV-1a over every verdict, for the CI double-run gate *)
}

let ok report = report.rp_failures = 0

let blame_json (b : Contract.blame) =
  Json.Obj
    [ ("property", Json.String (Format.asprintf "%a" P.pp b.Contract.b_property));
      ("providers", Json.List (List.map (fun s -> Json.String s) b.Contract.b_providers));
      ("without",
       (match b.Contract.b_without with
        | Ok props -> Json.String (P.Set.to_string props)
        | Error e -> Json.String (Format.asprintf "ill-formed: %a" PCheck.pp_error e)));
      ("from_net", Json.Bool b.Contract.b_from_net);
      ("classification", Json.String (Contract.classification b)) ]

(* The repro path is machine-local, so it stays out of the verdict
   JSON that the sweep fingerprint hashes; to_json is therefore stable
   across working directories and artifact layouts. *)
let verdict_json v =
  Json.Obj
    [ ("spec", Json.String v.vd_spec);
      ("profile", Json.String v.vd_profile);
      ("contract", Json.String (P.Set.to_string v.vd_props));
      ("checked",
       Json.List
         (List.map (fun p -> Json.String (Format.asprintf "%a" P.pp p)) v.vd_checked));
      ("ok", Json.Bool (verdict_ok v));
      ("fingerprint", Json.String (Printf.sprintf "%Lx" v.vd_fingerprint));
      ("violations",
       Json.List
         (List.map
            (fun (p, vs) ->
               Json.Obj
                 [ ("property", Json.String (Format.asprintf "%a" P.pp p));
                   ("detail", Invariant.to_json vs) ])
            v.vd_violations));
      ("blames", Json.List (List.map (fun (_, b) -> blame_json b) v.vd_blames));
      ("shrunk",
       match v.vd_shrunk with None -> Json.Null | Some sc -> Scenario.to_json sc) ]

let report_json r =
  Json.Obj
    [ ("schema", Json.String "horus-conformance/1");
      ("seed", Json.Int r.rp_seed);
      ("stacks", Json.Int r.rp_stacks);
      ("runs", Json.Int r.rp_runs);
      ("failures", Json.Int r.rp_failures);
      ("ok", Json.Bool (ok r));
      ("fingerprint", Json.String (Printf.sprintf "%Lx" r.rp_fingerprint));
      ("verdicts", Json.List (List.map verdict_json r.rp_verdicts)) ]

let sweep ?progress cf =
  let stacks = generate ~seed:cf.cf_seed ~count:cf.cf_stacks ~max_depth:cf.cf_max_depth in
  let total = List.length stacks * List.length cf.cf_profiles in
  let done_ = ref 0 in
  let verdicts =
    List.concat_map
      (fun (idx, st) ->
         List.map
           (fun (profile_name, profile) ->
              (* Each run's scenario seed is a pure function of the
                 sweep seed and the stack index, so one failing stack
                 can be re-run alone. *)
              let seed = (cf.cf_seed * 1000003) + (idx * 97) in
              let v =
                run_stack ?save_dir:cf.cf_save ~seed ~profile_name ~profile st
              in
              incr done_;
              (match progress with
               | Some f ->
                 f (Printf.sprintf "[%d/%d] %-8s %-40s %s" !done_ total profile_name
                      st.st_spec
                      (if verdict_ok v then "ok" else "VIOLATION"))
               | None -> ());
              v)
           cf.cf_profiles)
      (List.mapi (fun i st -> (i, st)) stacks)
  in
  let failures = List.length (List.filter (fun v -> not (verdict_ok v)) verdicts) in
  let fingerprint = Campaign.fingerprint (Json.List (List.map verdict_json verdicts)) in
  { rp_seed = cf.cf_seed; rp_stacks = List.length stacks;
    rp_runs = List.length verdicts; rp_failures = failures;
    rp_verdicts = verdicts; rp_fingerprint = fingerprint }

(* The sweep is a one-cell campaign; its key is the sweep fingerprint. *)
let campaign =
  { Campaign.ok;
    fingerprint = (fun r -> r.rp_fingerprint);
    key = (fun r -> Printf.sprintf "%016Lx" r.rp_fingerprint);
    to_json = report_json }
