(* The horus_check subsystem: systematic schedule exploration,
   counterexample shrinking, and replayable repro files, all against
   the production stack (no model-checker doubles here — see lib/model
   for those).

   The centerpiece is the paper's Figure 2 flush race as a live
   regression: with MBRSHIP's Section 5 ignore-rule disabled, the
   explorer must find a dispatch schedule under which one survivor
   delivers a crashed member's cast that nobody else ever sees; with
   the rule enabled (the default), the same exploration must come back
   clean. *)

open Horus_check

let good_spec = "MBRSHIP:FRAG:NAK:COM"
let bad_spec = "MBRSHIP(ignore_stragglers=false):FRAG:NAK:COM"

(* --- invariant predicates on synthetic observations --- *)

let mk ?(crashed = false) ?(left = false) ?(exited = false) ?(casts = []) ?(views = [])
    ?final member eid =
  { Invariant.o_member = member;
    o_eid = eid;
    o_crashed = crashed;
    o_left = left;
    o_exited = exited;
    o_casts = casts;
    o_views = views;
    o_final = final }

let props vs = List.map (fun v -> v.Invariant.v_property) vs

let test_invariants_clean () =
  let views = [ ((1, 10), [ 10; 11 ]) ] in
  let casts = [ ("o0-000", 1); ("o1-000", 1) ] in
  let obs =
    [ mk ~casts ~views ~final:(1, [ 10; 11 ]) 0 10;
      mk ~casts ~views ~final:(1, [ 10; 11 ]) 1 11 ]
  in
  Alcotest.(check (list string)) "clean run, no violations" []
    (props (Invariant.standard ~tag:'o' ~sent:(fun _ -> 1) obs))

let test_invariant_fifo_gap () =
  let obs = [ mk ~casts:[ ("o0-000", 1); ("o0-002", 1) ] 0 10 ] in
  Alcotest.(check (list string)) "gap detected" [ "per-origin-fifo" ]
    (props (Invariant.per_origin_fifo ~tag:'o' obs))

let test_invariant_view_disagreement () =
  let obs =
    [ mk ~views:[ ((1, 10), [ 10; 11 ]) ] 0 10;
      mk ~views:[ ((1, 10), [ 10 ]) ] 1 11 ]
  in
  Alcotest.(check (list string)) "same id, different membership" [ "view-agreement" ]
    (props (Invariant.view_agreement obs))

let test_invariant_vs_cut () =
  let obs = [ mk ~casts:[ ("o0-000", 1) ] 0 10; mk 1 11 ] in
  Alcotest.(check (list string)) "differing cuts" [ "virtual-synchrony" ]
    (props (Invariant.virtual_synchrony obs));
  (* A crashed member is exempt: survivors define the cut. *)
  let obs = [ mk ~casts:[ ("o0-000", 1) ] 0 10; mk ~crashed:true 1 11 ] in
  Alcotest.(check (list string)) "crashed member exempt" []
    (props (Invariant.virtual_synchrony obs))

let test_invariant_delivery_in_view () =
  (* Member 0 delivers origin 1's cast in epoch 2, whose view excludes
     origin 1's endpoint. *)
  let obs =
    [ mk ~casts:[ ("o1-000", 2) ] ~views:[ ((1, 10), [ 10; 11 ]); ((2, 10), [ 10 ]) ] 0 10;
      mk ~crashed:true 1 11 ]
  in
  Alcotest.(check (list string)) "delivery outside origin's view" [ "delivery-in-view" ]
    (props (Invariant.delivery_in_view ~tag:'o' obs))

let test_invariant_completeness () =
  let obs =
    [ mk ~casts:[ ("o0-000", 1); ("o1-000", 1) ] 0 10; mk ~casts:[ ("o1-000", 1) ] 1 11 ]
  in
  let vs = Invariant.survivor_completeness ~tag:'o' ~sent:(fun _ -> 1) obs in
  Alcotest.(check bool) "missing survivor cast detected" true
    (List.mem "survivor-completeness" (props vs));
  (* Both members did deliver their own casts, so self-delivery holds
     even though completeness does not. *)
  Alcotest.(check (list string)) "self delivery intact" []
    (props (Invariant.self_delivery ~tag:'o' ~sent:(fun _ -> 1) obs));
  let missing_own = [ mk 0 10 ] in
  Alcotest.(check (list string)) "missing own cast detected" [ "self-delivery" ]
    (props (Invariant.self_delivery ~tag:'o' ~sent:(fun _ -> 1) missing_own))

(* --- scenario JSON --- *)

let full_scenario () =
  Scenario.make ~name:"round-trip" ~seed:7
    ~net:{ Scenario.default_net with Scenario.drop = 0.1; jitter = 0.001 }
    ~links:[ (2, 0, 50.0) ]
    ~ops:[ { Scenario.op_member = 0; op_at = 0.1; op_pad = 0 }; { Scenario.op_member = 1; op_at = 0.2; op_pad = 0 } ]
    ~faults:
      [ { Scenario.f_at = 0.3; f_fault = Scenario.Crash 2 };
        { Scenario.f_at = 0.31; f_fault = Scenario.Suspect (0, 2) };
        { Scenario.f_at = 1.0; f_fault = Scenario.Partition [ [ 0 ]; [ 1; 2 ] ] };
        { Scenario.f_at = 2.0; f_fault = Scenario.Heal } ]
    ~run_for:5.0
    ~sched:
      { Scenario.default_sched with Scenario.s_choices = [ 0; 2; 1 ]; s_from = 0.05 }
    ~expect_violation:true ~spec:good_spec ~n:3 ()

let test_scenario_roundtrip () =
  let sc = full_scenario () in
  let s = Scenario.to_string sc in
  match Scenario.of_string s with
  | Error e -> Alcotest.fail ("round-trip parse failed: " ^ e)
  | Ok sc' ->
    Alcotest.(check string) "byte-identical re-serialization" s (Scenario.to_string sc');
    Alcotest.(check bool) "structurally equal" true (sc = sc')

let test_scenario_rejects_bad_member () =
  let sc = full_scenario () in
  let bad = { sc with Scenario.ops = [ { Scenario.op_member = 9; op_at = 0.0; op_pad = 0 } ] } in
  match Scenario.of_string (Scenario.to_string bad) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range member index accepted"

(* A schedule is its explicit choices: ["walk": null] loads (the
   committed repros carry it), a walk seed is refused. *)
let test_scenario_walk_field () =
  let module J = Horus_obs.Json in
  let with_walk w =
    match Scenario.to_json (full_scenario ()) with
    | J.Obj fields ->
      J.Obj
        (List.map
           (function
             | "sched", J.Obj s -> ("sched", J.Obj (("walk", w) :: s))
             | kv -> kv)
           fields)
    | _ -> assert false
  in
  (match Scenario.of_json (with_walk J.Null) with
   | Ok sc -> Alcotest.(check bool) "walk null ignored" true (sc = full_scenario ())
   | Error e -> Alcotest.fail ("walk null rejected: " ^ e));
  match Scenario.of_json (with_walk (J.Int 7)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "walk seed accepted"

(* --- decoders under byte mutation --- *)

(* Seeded mutants of the committed repros and of a chaos profile: byte
   flips, truncations, insertions (biased toward JSON's own syntax, so
   escapes, numbers and brackets get hit) and splices of one corpus
   into another. Every decoder answers [Ok] or [Error]; none raises. *)
let test_decoders_never_raise () =
  let repros =
    Sys.readdir "repros" |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.map (fun f -> In_channel.with_open_bin (Filename.concat "repros" f) In_channel.input_all)
  in
  let profile =
    {|{ "drop": 0.05, "duplicate": 0.01, "reorder": 0.05, "reorder_window": 4,
        "partitions": [ { "from": 1, "to": 0, "start": 4.0, "stop": 6.5 } ] }|}
  in
  let decoders =
    [ ("Json.of_string", fun s -> ignore (Horus_obs.Json.of_string s));
      ("Scenario.of_string", fun s -> ignore (Scenario.of_string s));
      ("Chaos.profile_of_string", fun s -> ignore (Horus_transport.Chaos.profile_of_string s)) ]
  in
  let check s =
    List.iter
      (fun (name, decode) ->
         match decode s with
         | () -> ()
         | exception e ->
           Alcotest.failf "%s raised %s on %S" name (Printexc.to_string e) s)
      decoders
  in
  List.iter check [ {|"\uzzzz"|}; {|"\u12"|}; {|"\u_123"|}; {|{"name": "\u00zz"}|} ];
  (* Edited copies of a committed repro that are well-formed but would
     crash a replay: each must decode to [Error]. *)
  let module J = Horus_obs.Json in
  let clean =
    match J.of_string (In_channel.with_open_bin "repros/clean-crash.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let rec set path v j =
    match path, j with
    | [], _ -> v
    | k :: rest, J.Obj kvs -> J.Obj (List.map (fun (k', x) -> (k', if k' = k then set rest v x else x)) kvs)
    | _ -> Alcotest.fail "no such field"
  in
  let bad =
    List.map (J.to_string ~indent:true)
      [ (* no ops or faults, so only [n] is out of range *)
        clean |> set [ "n" ] (J.Int 0) |> set [ "ops" ] (J.List []) |> set [ "faults" ] (J.List []);
        set [ "spec" ] (J.String "MBRSHIP:NOSUCH:COM") clean;
        set [ "sched"; "width" ] (J.Int 0) clean;
        set [ "net"; "latency" ] (J.Float (-0.0005)) clean ]
  in
  List.iter
    (fun s ->
       check s;
       match Scenario.of_string s with
       | Error _ -> ()
       | Ok _ -> Alcotest.failf "decoded a repro that cannot replay: %s" s)
    bad;
  let corpus = Array.of_list ((profile :: repros) @ bad) in
  let rng = Random.State.make [| 21 |] in
  let syntax = {|"\u{}[],:-+.eE0123456789 ntf|} in
  let mutate s =
    let n = String.length s in
    let at () = Random.State.int rng (n + 1) in
    match Random.State.int rng 4 with
    | 0 when n > 0 ->
      let b = Bytes.of_string s in
      let i = Random.State.int rng n in
      Bytes.set b i (Char.chr (Char.code s.[i] lxor (1 lsl Random.State.int rng 8)));
      Bytes.to_string b
    | 1 -> String.sub s 0 (at ())
    | 2 ->
      let i = at () in
      let c =
        if Random.State.bool rng then syntax.[Random.State.int rng (String.length syntax)]
        else Char.chr (Random.State.int rng 256)
      in
      String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
    | _ ->
      let donor = corpus.(Random.State.int rng (Array.length corpus)) in
      let d = Random.State.int rng (String.length donor + 1) in
      let len = Random.State.int rng (String.length donor - d + 1) in
      let i = at () in
      String.sub s 0 i ^ String.sub donor d len ^ String.sub s i (n - i)
  in
  Array.iter
    (fun seed ->
       for _ = 1 to 500 do
         let rec go s k = if k = 0 then s else go (mutate s) (k - 1) in
         check (go seed (1 + Random.State.int rng 4))
       done)
    corpus

(* --- the Figure 2 flush race, live --- *)

(* D (member 3) casts M and crashes; the copies toward A and B are in
   flight on slow links (they will never arrive before the flush
   ends), the copy toward C is in the chooser's window. A suspects D
   immediately. The explorer's job is to find the schedule that parks
   C's copy until after C has replied to the flush. *)
let fig2 ?(rule_on = true) ?sched () =
  Scenario.make
    ~name:(if rule_on then "figure2-rule-on" else "figure2-straggler")
    ~seed:1
    ~links:[ (3, 0, 100.0); (3, 1, 100.0) ]
    ~ops:[ { Scenario.op_member = 3; op_at = 0.02; op_pad = 0 } ]
    ~faults:
      [ { Scenario.f_at = 0.0201; f_fault = Scenario.Crash 3 };
        { Scenario.f_at = 0.0203; f_fault = Scenario.Suspect (0, 3) } ]
    ~run_for:4.0 ?sched
    ~spec:(if rule_on then good_spec else bad_spec)
    ~n:4 ()

let fig2_config =
  { Explore.horizon = 0.002;
    width = 5;
    from_time = 0.0199;
    depth = 8;
    max_runs = 300 }

let test_explorer_finds_flush_race () =
  let out = Explore.explore ~config:fig2_config (fig2 ~rule_on:false ()) in
  match out.Explore.found with
  | None ->
    Alcotest.fail
      (Printf.sprintf "no violation in %d runs (%d distinct outcomes)"
         out.Explore.stats.Explore.runs out.Explore.stats.Explore.distinct)
  | Some (bad, r) ->
    Alcotest.(check bool) "virtual synchrony is what breaks" true
      (List.exists
         (fun v -> v.Invariant.v_property = "virtual-synchrony")
         r.Runner.r_violations);
    (* The counterexample is concrete: replaying it hits the same
       violation with no search. *)
    let replay = Runner.run bad in
    Alcotest.(check bool) "concretized schedule replays the violation" true
      (Runner.failed replay)

let test_explorer_clean_with_rule_on () =
  let out = Explore.explore ~config:fig2_config (fig2 ~rule_on:true ()) in
  (match out.Explore.found with
   | Some (_, r) ->
     Alcotest.fail
       (Format.asprintf "Section 5 rule enabled, yet: %a"
          (Format.pp_print_list Invariant.pp_violation)
          r.Runner.r_violations)
   | None -> ());
  Alcotest.(check bool) "searched more than one schedule" true
    (out.Explore.stats.Explore.runs > 1)

(* Satellite of the above: the regression pinned to the exact schedule
   the explorer found (kept in test/repros/figure2-straggler.json too).
   Same choices, rule on vs off — the rule is the only difference. *)
let fig2_choices = [ 0; 0; 0; 1; 1 ]

let test_figure2_regression () =
  let sched =
    { Scenario.s_horizon = 0.002;
      s_width = 5;
      s_from = 0.0199;
      s_choices = fig2_choices }
  in
  let bad = Runner.run (fig2 ~rule_on:false ~sched ()) in
  Alcotest.(check bool) "rule off: straggler splits the cut" true (Runner.failed bad);
  Alcotest.(check bool) "rule off: virtual synchrony violation" true
    (List.exists
       (fun v -> v.Invariant.v_property = "virtual-synchrony")
       bad.Runner.r_violations);
  let good = Runner.run (fig2 ~rule_on:true ~sched ()) in
  Alcotest.(check (list string)) "rule on: same schedule, clean" []
    (List.map (fun v -> v.Invariant.v_property) good.Runner.r_violations)

let test_run_deterministic () =
  let sched =
    { Scenario.default_sched with Scenario.s_width = 5; s_from = 0.0199;
      s_choices = fig2_choices }
  in
  let sc = fig2 ~rule_on:false ~sched () in
  let r1 = Runner.run sc and r2 = Runner.run sc in
  Alcotest.(check string) "byte-identical result JSON" (Runner.to_string r1)
    (Runner.to_string r2);
  Alcotest.(check bool) "fingerprints agree" true
    (Int64.equal (Runner.fingerprint r1) (Runner.fingerprint r2))

(* --- shrinking --- *)

let test_shrink_seeded_failure () =
  (* A fuzz-style failing scenario with junk bolted on: extra traffic
     from the survivors and an unrelated late leave. The shrinker must
     strip it back to (at most) the race's skeleton. *)
  let base = fig2 ~rule_on:false () in
  let junk_ops =
    List.concat_map
      (fun m ->
         List.init 3 (fun k ->
             { Scenario.op_member = m; op_at = 1.0 +. (0.1 *. float_of_int (m + k)); op_pad = 0 }))
      [ 0; 1 ]
  in
  let seeded =
    { base with
      Scenario.name = "seeded-fuzz-failure";
      ops = base.Scenario.ops @ junk_ops;
      faults =
        base.Scenario.faults @ [ { Scenario.f_at = 2.5; f_fault = Scenario.Leave 1 } ] }
  in
  let cfg = { fig2_config with Explore.max_runs = 150 } in
  let fails sc =
    match (Explore.explore ~config:cfg sc).Explore.found with
    | Some _ -> true
    | None -> false
  in
  Alcotest.(check bool) "seeded scenario fails" true (fails seeded);
  let shrunk, stats = Shrink.shrink ~fails seeded in
  Alcotest.(check bool) "shrinker made progress" true (stats.Shrink.accepted > 0);
  Alcotest.(check bool)
    (Printf.sprintf "ops minimized (%d <= 5)" (List.length shrunk.Scenario.ops))
    true
    (List.length shrunk.Scenario.ops <= 5);
  Alcotest.(check bool)
    (Printf.sprintf "faults minimized (%d <= 2)" (List.length shrunk.Scenario.faults))
    true
    (List.length shrunk.Scenario.faults <= 2);
  Alcotest.(check bool) "shrunk scenario still fails" true (fails shrunk)

(* Churn-campaign repros arrive with crash *waves* — many members
   killed at one instant. The shrinker must offer whole-window drops
   and a halved kill set as single edits, so a multi-wave repro that
   only needs one wave minimizes in a handful of runs. *)
let test_shrink_kill_windows () =
  let crash at m = { Scenario.f_at = at; f_fault = Scenario.Crash m } in
  let sc =
    { (full_scenario ()) with
      Scenario.n = 8;
      links = [];
      faults =
        [ crash 1.0 1; crash 1.0 2; crash 1.0 3;
          crash 2.0 4; crash 2.0 5;
          { Scenario.f_at = 2.5; f_fault = Scenario.Leave 6 } ] }
  in
  let cands = Shrink.candidates sc in
  let crashes_of c =
    List.filter_map
      (fun f ->
         match f.Scenario.f_fault with
         | Scenario.Crash m -> Some (f.Scenario.f_at, m)
         | _ -> None)
      c.Scenario.faults
  in
  let keeps_leave c =
    List.exists
      (fun f -> match f.Scenario.f_fault with Scenario.Leave _ -> true | _ -> false)
      c.Scenario.faults
  in
  (* One edit drops the whole first wave, leaving the second (and the
     unrelated leave) intact. *)
  Alcotest.(check bool) "first wave droppable as one edit" true
    (List.exists
       (fun c -> crashes_of c = [ (2.0, 4); (2.0, 5) ] && keeps_leave c)
       cands);
  (* And symmetrically the second. *)
  Alcotest.(check bool) "second wave droppable as one edit" true
    (List.exists
       (fun c -> crashes_of c = [ (1.0, 1); (1.0, 2); (1.0, 3) ] && keeps_leave c)
       cands);
  (* One edit halves the killed-member set across windows. *)
  Alcotest.(check bool) "kill set halvable as one edit" true
    (List.exists (fun c -> crashes_of c = [ (1.0, 1); (1.0, 2) ] && keeps_leave c) cands);
  (* The aggressive edits actually shrink: a predicate that only needs
     one second-wave crash minimizes without visiting every subset. *)
  let fails c = List.exists (fun (at, m) -> at = 2.0 && m = 4) (crashes_of c) in
  let shrunk, stats = Shrink.shrink ~fails sc in
  Alcotest.(check bool) "still fails" true (fails shrunk);
  Alcotest.(check int) "single crash left" 1 (List.length (crashes_of shrunk));
  Alcotest.(check bool) "few attempts"
    true (stats.Shrink.attempts < 200)

let test_shrink_drop_member_reindexes () =
  let sc = full_scenario () in
  let smaller =
    List.filter (fun c -> c.Scenario.n = sc.Scenario.n - 1) (Shrink.candidates sc)
  in
  List.iter
    (fun c ->
       (* Every candidate must still serialize and reload — the codec
          validates member ranges, so stale indices would surface. *)
       match Scenario.of_string (Scenario.to_string c) with
       | Ok _ -> ()
       | Error e -> Alcotest.fail ("drop-member candidate invalid: " ^ e))
    smaller;
  Alcotest.(check bool) "member-removal candidates exist" true (smaller <> [])

(* --- repro files --- *)

let test_repro_save_load () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "horus-repro-test" in
  let sc = { (fig2 ~rule_on:false ()) with Scenario.expect_violation = true } in
  match Repro.save ~dir sc with
  | None -> Alcotest.fail "save failed"
  | Some path ->
    (match Repro.load path with
     | Error e -> Alcotest.fail ("load failed: " ^ e)
     | Ok sc' ->
       Alcotest.(check string) "same bytes after round trip" (Scenario.to_string sc)
         (Scenario.to_string sc');
       Sys.remove path)

(* Every repro file under test/repros/ must replay to its recorded
   outcome: a bug, once caught and committed, stays caught. *)
let repro_case (path, loaded) =
  Alcotest.test_case path `Slow (fun () ->
      match loaded with
      | Error e -> Alcotest.fail (Printf.sprintf "%s does not load: %s" path e)
      | Ok sc ->
        let r = Runner.run sc in
        Alcotest.(check bool)
          (Printf.sprintf "%s: violation expectation (%b)" path
             sc.Scenario.expect_violation)
          sc.Scenario.expect_violation (Runner.failed r);
        (* And the replay itself is deterministic, byte for byte. *)
        Alcotest.(check string)
          (Printf.sprintf "%s: deterministic replay" path)
          (Runner.to_string r)
          (Runner.to_string (Runner.run sc)))

let () =
  let repro_cases = List.map repro_case (Repro.load_dir "repros") in
  Alcotest.run "check"
    [ ( "invariants",
        [ Alcotest.test_case "clean observations pass" `Quick test_invariants_clean;
          Alcotest.test_case "fifo gap detected" `Quick test_invariant_fifo_gap;
          Alcotest.test_case "view disagreement detected" `Quick
            test_invariant_view_disagreement;
          Alcotest.test_case "cut mismatch detected" `Quick test_invariant_vs_cut;
          Alcotest.test_case "delivery outside view detected" `Quick
            test_invariant_delivery_in_view;
          Alcotest.test_case "completeness detected" `Quick test_invariant_completeness ] );
      ( "scenario",
        [ Alcotest.test_case "json round trip" `Quick test_scenario_roundtrip;
          Alcotest.test_case "walk seed rejected" `Quick test_scenario_walk_field;
          Alcotest.test_case "bad member index rejected" `Quick
            test_scenario_rejects_bad_member;
          Alcotest.test_case "decoders never raise on mutated input" `Quick
            test_decoders_never_raise ] );
      ( "explorer",
        [ Alcotest.test_case "finds the flush race (rule off)" `Slow
            test_explorer_finds_flush_race;
          Alcotest.test_case "clean with Section 5 rule on" `Slow
            test_explorer_clean_with_rule_on;
          Alcotest.test_case "figure 2 regression (pinned schedule)" `Slow
            test_figure2_regression;
          Alcotest.test_case "runs are deterministic" `Slow test_run_deterministic ] );
      ( "shrinker",
        [ Alcotest.test_case "seeded fuzz failure minimized" `Slow
            test_shrink_seeded_failure;
          Alcotest.test_case "crash waves shed as whole windows" `Quick
            test_shrink_kill_windows;
          Alcotest.test_case "drop-member reindexes cleanly" `Quick
            test_shrink_drop_member_reindexes ] );
      ("repro", Alcotest.test_case "save/load round trip" `Quick test_repro_save_load
                :: repro_cases) ]
