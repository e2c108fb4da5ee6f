(* The fused fast path (Section 10): equivalence and unit tests.

   The contract under test is that [~fastpath:true] is purely an
   optimization — fused and unfused runs of the same scenario produce
   identical outcome fingerprints, including scenarios that force
   mid-stream fallback (chaos drops trigger NAK repair, crashes
   trigger flushes and view changes). On top of the equivalence
   sweeps, a live-world test asserts the path actually engages (the
   equivalence would otherwise be vacuous) and is invalidated and
   recompiled across a view change; unit tests pin down the buffer
   pool's accounting and — via quickcheck — that the segment-list
   encoding is byte-for-byte the blit encoding. *)

open Horus
module Runner = Horus_check.Runner
module Repro = Horus_check.Repro
module Metrics = Horus_obs.Metrics
module Msg = Horus_msg.Msg
module Pool = Horus_msg.Pool
module Seg = Horus_msg.Seg

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

(* --- buffer pool accounting --- *)

let test_pool_reuse () =
  let p = Pool.create ~block:8 ~limit:2 () in
  let b1 = Pool.acquire p in
  Alcotest.(check int) "blocks are block-sized" 8 (Bytes.length b1);
  Alcotest.(check int) "first acquire misses" 1 (Pool.misses p);
  Pool.release p b1;
  Alcotest.(check int) "released block retained" 1 (Pool.in_pool p);
  let b2 = Pool.acquire p in
  Alcotest.(check bool) "the same block comes back" true (b2 == b1);
  Alcotest.(check int) "second acquire hits" 1 (Pool.hits p);
  Alcotest.(check int) "free list drained" 0 (Pool.in_pool p)

let test_pool_limits () =
  let p = Pool.create ~block:8 ~limit:2 () in
  let bs = List.init 3 (fun _ -> Pool.acquire p) in
  List.iter (Pool.release p) bs;
  Alcotest.(check int) "free list capped at limit" 2 (Pool.in_pool p);
  Alcotest.(check int) "overflow release discarded" 1 (Pool.discards p);
  Pool.release p (Bytes.create 16);
  Alcotest.(check int) "foreign-size release discarded" 2 (Pool.discards p);
  Alcotest.(check int) "foreign size never pooled" 2 (Pool.in_pool p)

let test_seg_returns_block () =
  let p = Pool.create () in
  let s = Seg.of_msg p (Msg.create "payload") in
  Seg.push_u32 s 7;
  Seg.dispose s;
  Seg.dispose s;
  (* idempotent *)
  Alcotest.(check int) "dispose returns the block once" 1 (Pool.in_pool p);
  Alcotest.(check int) "no discards" 0 (Pool.discards p);
  let s2 = Seg.of_msg p (Msg.create "again") in
  Alcotest.(check int) "next segment recycles it" 1 (Pool.hits p);
  Seg.dispose s2

let test_seg_spill_keeps_pool_clean () =
  (* A header stack that outgrows its block spills into a private
     buffer; the displaced full-size block goes straight back to the
     pool, and the spilled buffer is discarded on dispose — the pool
     only ever holds full-size blocks. *)
  let p = Pool.create ~block:4 () in
  let s = Seg.of_msg p (Msg.create "x") in
  Seg.push_u32 s 0xaabbccdd;
  (* exactly fills the block *)
  Alcotest.(check int) "still on the pooled block" 0 (Pool.in_pool p);
  Seg.push_u32 s 0x11223344;
  (* forces the spill *)
  Alcotest.(check int) "displaced block returned on spill" 1 (Pool.in_pool p);
  Alcotest.(check string) "spill preserved the written headers"
    "\x11\x22\x33\x44\xaa\xbb\xcc\xddx" (Msg.to_string (Seg.to_msg s));
  Seg.dispose s;
  Alcotest.(check int) "spilled buffer discarded" 1 (Pool.discards p);
  Alcotest.(check int) "pool holds only full-size blocks" 1 (Pool.in_pool p)

(* --- quickcheck: segment-list encode = blit encode --- *)

(* A random header program: (kind, value) pairs. Applying the same
   program to a Msg (reserve/blit pushes) and a Seg (pooled block,
   zero-copy body) must produce identical bytes — including when the
   program outgrows the 64-byte pooled block and spills. *)
let header_ops =
  QCheck.(
    pair printable_string
      (list_of_size Gen.(0 -- 40) (pair (int_bound 3) (int_bound 0xffffff))))

let apply_msg m (k, v) =
  match k with
  | 0 -> Msg.push_u8 m v
  | 1 -> Msg.push_u16 m v
  | 2 -> Msg.push_u32 m v
  | _ -> Msg.push_bool m (v land 1 = 1)

let apply_seg s (k, v) =
  match k with
  | 0 -> Seg.push_u8 s v
  | 1 -> Seg.push_u16 s v
  | 2 -> Seg.push_u32 s v
  | _ -> Seg.push_bool s (v land 1 = 1)

let prop_seg_matches_blit =
  QCheck.Test.make ~name:"seg: segment-list encode = blit encode" ~count:500
    header_ops
    (fun (payload, ops) ->
       let m = Msg.create payload in
       List.iter (apply_msg m) ops;
       let pool = Pool.create () in
       let s = Seg.of_msg pool (Msg.create payload) in
       List.iter (apply_seg s) ops;
       let ok =
         Seg.length s = Msg.length m
         && Msg.equal (Seg.to_msg s) m
       in
       Seg.dispose s;
       ok)

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
          Alcotest.test_case "off by default" `Slow test_fastpath_off_by_default ] );
      ( "pool",
        [ Alcotest.test_case "acquire/release reuse" `Quick test_pool_reuse;
          Alcotest.test_case "limit and foreign-size discards" `Quick
            test_pool_limits;
          Alcotest.test_case "segment returns its block" `Quick
            test_seg_returns_block;
          Alcotest.test_case "spill keeps the pool clean" `Quick
            test_seg_spill_keeps_pool_clean ] );
      ("encode", [ QCheck_alcotest.to_alcotest prop_seg_matches_blit ]) ]
