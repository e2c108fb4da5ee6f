(* The fused fast path (Section 10): equivalence tests.

   The contract under test is that [~fastpath:true] is purely an
   optimization — fused and unfused runs of the same scenario produce
   identical outcome fingerprints, including scenarios that force
   mid-stream fallback (chaos drops trigger NAK repair, crashes
   trigger flushes and view changes). On top of the equivalence
   sweeps, a live-world test asserts the path actually engages (the
   equivalence would otherwise be vacuous) and is invalidated and
   recompiled across a view change. *)

open Horus
module Runner = Horus_check.Runner
module Repro = Horus_check.Repro
module Metrics = Horus_obs.Metrics

(* --- fused/unfused fingerprint equivalence over committed repros --- *)

(* Every repro under test/repros/ replays under both paths to the same
   outcome fingerprint. The chaos repros are the interesting rows:
   their drop/partition schedules force the fused path to fall back
   mid-stream (NAK repair, reconfiguration), and the fallback must
   leave no observable trace. *)
let repro_equivalence_case (path, loaded) =
  Alcotest.test_case path `Slow (fun () ->
      match loaded with
      | Error e -> Alcotest.fail (Printf.sprintf "%s does not load: %s" path e)
      | Ok sc ->
        let slow = Runner.run sc in
        let fast = Runner.run ~fastpath:true sc in
        Alcotest.(check bool)
          (Printf.sprintf "%s: same failure status" path)
          (Runner.failed slow) (Runner.failed fast);
        Alcotest.(check bool)
          (Printf.sprintf "%s: fused/unfused fingerprints agree" path)
          true
          (Int64.equal (Runner.fingerprint slow) (Runner.fingerprint fast)))

(* The explorer itself, fused vs unfused: searching the figure-2
   straggler race must take the same path through the schedule tree
   (same runs, same distinct fingerprints) and concretize the same
   counterexample — the fast path changes no outcome on any of the
   dozens of schedules the search visits. *)
let test_explorer_equivalence () =
  let module Explore = Horus_check.Explore in
  let module Scenario = Horus_check.Scenario in
  match Repro.load "repros/figure2-straggler.json" with
  | Error e -> Alcotest.fail ("figure2 repro does not load: " ^ e)
  | Ok sc ->
    let config =
      { Explore.horizon = 0.002;
        width = 5;
        from_time = 0.0199;
        depth = 8;
        max_runs = 120 }
    in
    let slow = Explore.explore ~config sc in
    let fast = Explore.explore ~config ~fastpath:true sc in
    Alcotest.(check int) "same number of schedules explored"
      slow.Explore.stats.Explore.runs fast.Explore.stats.Explore.runs;
    Alcotest.(check int) "same distinct outcome fingerprints"
      slow.Explore.stats.Explore.distinct fast.Explore.stats.Explore.distinct;
    let choices out =
      match out.Explore.found with
      | None -> None
      | Some (cex, _) ->
        Option.map (fun s -> s.Scenario.s_choices) cex.Scenario.sched
    in
    Alcotest.(check bool) "explorer found the race both ways" true
      (choices slow <> None && choices fast <> None);
    Alcotest.(check bool) "same concretized counterexample schedule" true
      (choices slow = choices fast)

(* --- live world: the path engages, falls back, recompiles --- *)

let canonical = "TOTAL:MBRSHIP:FRAG:NAK:COM"

(* Form a 3-member group, cast three times in steady state (these
   should fuse), crash the youngest (the reconfiguration invalidates
   the compiled path), cast once more (recompile), and return what
   there is to observe plus the world for its metrics. *)
let run_world ~fastpath =
  let world = World.create ~seed:61 () in
  let g = World.fresh_group_addr world in
  let founder = Group.join ~fastpath (Endpoint.create world ~spec:canonical) g in
  World.run_for world ~duration:0.3;
  let rest =
    List.init 2 (fun _ ->
        let m =
          Group.join ~fastpath ~contact:(Group.addr founder)
            (Endpoint.create world ~spec:canonical) g
        in
        World.run_for world ~duration:0.5;
        m)
  in
  let members = founder :: rest in
  World.run_for world ~duration:3.0;
  List.iter
    (fun p ->
       Group.cast founder p;
       World.run_for world ~duration:0.5)
    [ "one"; "two"; "three" ];
  Endpoint.crash (Group.endpoint (List.nth members 2));
  World.run_for world ~duration:4.0;
  Group.cast founder "four";
  World.run_for world ~duration:2.0;
  let obs =
    List.map
      (fun gr ->
         ( Group.casts gr,
           match Group.view gr with
           | Some v ->
             Some (View.ltime v, List.map Addr.endpoint_id (View.members v))
           | None -> None ))
      members
  in
  (obs, world)

let test_view_change_equivalence () =
  let slow, _ = run_world ~fastpath:false in
  let fast, world = run_world ~fastpath:true in
  Alcotest.(check (list (list string)))
    "same deliveries at every member"
    (List.map fst slow) (List.map fst fast);
  Alcotest.(check bool) "same final views" true
    (List.map snd slow = List.map snd fast);
  List.iteri
    (fun i (casts, _) ->
       if i < 2 then
         Alcotest.(check (list string))
           (Printf.sprintf "survivor %d saw every cast" i)
           [ "one"; "two"; "three"; "four" ] casts)
    fast;
  (* The equivalence above must not be vacuous: the steady-state casts
     really ran fused, the view change invalidated a live path, and
     the post-reconfiguration cast recompiled it. *)
  let count name = Metrics.count (Metrics.counter (World.metrics world) name) in
  Alcotest.(check bool)
    (Printf.sprintf "steady-state casts fused (%d)" (count "fastpath.send_fused"))
    true
    (count "fastpath.send_fused" >= 3);
  Alcotest.(check bool)
    (Printf.sprintf "remote deliveries fused (%d)" (count "fastpath.deliver_fused"))
    true
    (count "fastpath.deliver_fused" > 0);
  Alcotest.(check bool)
    (Printf.sprintf "view change invalidated a live path (%d)"
       (count "fastpath.invalidations"))
    true
    (count "fastpath.invalidations" >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "path recompiled after the view change (%d)"
       (count "fastpath.compiles"))
    true
    (count "fastpath.compiles" >= 2)

(* Off by default: a plain run must not touch the fast path at all. *)
let test_fastpath_off_by_default () =
  let _, world = (fun () -> run_world ~fastpath:false) () in
  let count name = Metrics.count (Metrics.counter (World.metrics world) name) in
  Alcotest.(check int) "no fused sends" 0 (count "fastpath.send_fused");
  Alcotest.(check int) "no compiles" 0 (count "fastpath.compiles")

let () =
  let repro_cases = List.map repro_equivalence_case (Repro.load_dir "repros") in
  Alcotest.run "fastpath"
    [ ( "equivalence",
        repro_cases
        @ [ Alcotest.test_case "explorer sweep: fused = unfused" `Slow
              test_explorer_equivalence ] );
      ( "live-world",
        [ Alcotest.test_case "view change: fallback, recompile, equivalence" `Slow
            test_view_change_equivalence;
          Alcotest.test_case "off by default" `Slow test_fastpath_off_by_default ] ) ]
