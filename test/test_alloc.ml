(* Allocation budget of the steady-state cast path, under the simulator.

   Three members run the Section 7 stack (TOTAL:MBRSHIP:FRAG:NAK:COM)
   and one of them casts 64-byte messages at a fixed rate. The minor
   heap words per cast, summed over the whole world (all three stacks,
   the simulated network and the event engine), are measured over a
   steady-state window twice:

   - at the default stability and status periods;
   - with the caster's MBRSHIP stab_period and NAK status_period raised
     8x. The other members then learn of the caster's deliveries 8x
     later, so their unstable store (and the caster's retransmission
     buffer's share of control casts) is about 8x larger, while their
     own stability gossip still runs at the default period — so
     anything that sweeps the store on each gossip costs 8x more per
     cast. (Raising the periods at every member would not do: the
     sweeps would then run 8x less often, and their cost per cast
     would stay flat.)

   The per-cast figure must not grow by more than 10 % between the two,
   which catches a reintroduced O(store) sweep, and must stay under a
   committed ceiling, which catches any other allocation creeping onto
   the path. Words are a count, not a time, so the test is
   host-independent; the ceiling leaves about 25 % headroom over the
   measured value, for the differences between OCaml releases.

   The default-period window is measured once more with every member
   on the fused fast path. A fused cast pushes its headers onto the
   same message as an unfused one and skips the event queue, and a
   fused delivery allocates nothing to name its sender, so it must
   allocate no more than the unfused cast, and it stays under a
   ceiling of its own, close to its measured value. Since a layer
   crossing allocates nothing and the layers pass on the events they
   are given, the two allocate the same words per cast.

   A last window has all three members cast in turn. TOTAL's token
   then moves on nearly every cast, so this window covers the hand-off
   path (token requests, stale hand-offs, fast-path invalidation) that
   a single caster never takes. It has a ceiling close to its measured
   value, so formatting or logging that creeps back onto the hand-off
   fails it. *)

open Horus

(* Every member tolerates 2 s of silence before suspecting a peer: the
   slow caster's status messages are 0.4 s apart, longer than NAK's
   default threshold of five default status periods. *)
let stack = "TOTAL:MBRSHIP:FRAG:NAK(suspect_after=2.0):COM"

let slow_stack =
  "TOTAL:MBRSHIP(stab_period=0.8):FRAG:NAK(status_period=0.4,suspect_after=2.0):COM"

let cast_period = 0.0005
let warmup_s = 2.0
let measure_s = 4.0

(* Words per cast over the measured window; with [round_robin] every
   member casts in turn, else only the first. *)
let words_per_cast ?(round_robin = false) ~fastpath ~caster_spec () =
  let world = World.create ~seed:1 () in
  let g = World.fresh_group_addr world in
  let delivered = ref 0 in
  let on_up = function Event.U_cast _ -> incr delivered | _ -> () in
  let join ?contact spec =
    let gr =
      Group.join ?contact ~on_up ~record:false ~fastpath (Endpoint.create world ~spec) g
    in
    World.run_for world ~duration:0.5;
    gr
  in
  let caster = join caster_spec in
  let others = List.init 2 (fun _ -> join ~contact:(Group.addr caster) stack) in
  World.run_for world ~duration:2.0;
  List.iter
    (fun gr ->
       match Group.view gr with
       | Some v when View.size v = 3 -> ()
       | _ -> Alcotest.fail "the three members did not settle into one view")
    (caster :: others);
  let payload = String.make 64 'w' in
  let casters = Array.of_list (if round_robin then caster :: others else [ caster ]) in
  let run_casts seconds =
    let n = int_of_float (seconds /. cast_period) in
    for i = 1 to n do
      Group.cast casters.(i mod Array.length casters) payload;
      World.run_for world ~duration:cast_period
    done;
    n
  in
  let warm = run_casts warmup_s in
  let before = Gc.minor_words () in
  let n = run_casts measure_s in
  let words = Gc.minor_words () -. before in
  (* The window measured real work: every cast reached every member. *)
  World.run_for world ~duration:2.0;
  Alcotest.(check int) "every cast delivered at every member" (3 * (warm + n)) !delivered;
  words /. float_of_int n

(* About 1.25x the 242.8 words per cast measured at the default
   periods (OCaml 5.1.1, x86-64). While the event queue boxed every
   crossing and the layers rebuilt the events they passed on, the
   window measured 396. *)
let ceiling = 304.0

(* The 242.8 words per fused cast measured at the default periods
   (OCaml 5.1.1, x86-64), plus 1.5 %: a read position tuple allocated
   again on each fused delivery (249.1 words per cast) fails it. *)
let fused_ceiling = 246.0

(* About 3 % over the 653.2 words per round-robin cast measured
   (OCaml 5.1.1, x86-64). While layers still formatted strings into a
   world trace (TOTAL on every stale token hand-off, among others),
   the window measured 1,448.7; while the event queue boxed every
   crossing, 1,041.5. *)
let round_robin_ceiling = 673.0

let test_budget () =
  let default = words_per_cast ~fastpath:false ~caster_spec:stack () in
  let slow = words_per_cast ~fastpath:false ~caster_spec:slow_stack () in
  let fused = words_per_cast ~fastpath:true ~caster_spec:stack () in
  let round_robin = words_per_cast ~round_robin:true ~fastpath:false ~caster_spec:stack () in
  Printf.printf
    "minor words per cast: default periods %.1f, caster's periods 8x %.0f, fused %.1f, \
     round robin %.1f\n"
    default slow fused round_robin;
  if round_robin > round_robin_ceiling then
    Alcotest.failf "%.0f minor words per round-robin cast exceeds the ceiling of %.0f"
      round_robin round_robin_ceiling;
  if default > ceiling then
    Alcotest.failf "%.0f minor words per cast exceeds the ceiling of %.0f" default ceiling;
  if fused > fused_ceiling then
    Alcotest.failf "%.0f minor words per fused cast exceeds the ceiling of %.0f" fused
      fused_ceiling;
  if fused > default then
    Alcotest.failf "the fused cast allocates %.0f minor words, the unfused %.0f" fused
      default;
  if slow > 1.10 *. default then
    Alcotest.failf
      "minor words per cast grew from %.0f to %.0f (more than 10%%) with an 8x larger \
       unstable store"
      default slow

(* Allocation budget of an idle wall-clock driver step over a shard's
   bypass backend: pump (drain the mailboxes and the wrapped backend,
   run no event), size the sleep, park the doorbell, sleep 1 ms in
   poll(2), unpark, pump again. A sharded driver takes about one such
   step for every two casts it handles, so what the step allocates
   shows up in the benchmark's words per cast. The step used to
   allocate a drain closure on every poll and two options to size its
   sleep: 27.8 words without a doorbell. It now allocates 15.7 with
   one (OCaml 5.1.1, x86-64): the drain callback is built once per
   bypass and [Engine.until_next] returns a bare float. The ceiling is
   5 % above that; the per-poll closure (26 words) or the options
   (17.7 words) fail it. *)
let idle_step_ceiling = 16.5

let test_idle_step () =
  let module T = Horus_transport in
  let engine = Horus_sim.Engine.create () in
  (* A far timer, as a live stack always has one: the step sizes its
     sleep from it. *)
  ignore (Horus_sim.Engine.schedule engine ~delay:3600.0 ignore);
  let hub = T.Loopback.hub engine in
  let fabric = T.Shard.create 2 in
  let backend =
    T.Shard.bypass fabric ~me:0 ~lookup:(fun _ -> None) (T.Loopback.create ~addr:"mem:0" hub)
  in
  backend.T.Backend.set_rx (fun ~src:_ _ -> ());
  let driver = T.Driver.create ~max_tick:0.001 ~min_sleep:0.001 engine [ backend ] in
  let steps n = for _ = 1 to n do ignore (T.Driver.step driver) done in
  steps 20;
  let n = 200 in
  let before = Gc.minor_words () in
  steps n;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  backend.T.Backend.close ();
  Printf.printf "minor words per idle driver step over a bypass: %.1f\n" words;
  if words > idle_step_ceiling then
    Alcotest.failf "%.1f minor words per idle driver step exceeds the ceiling of %.0f" words
      idle_step_ceiling

let () =
  Alcotest.run "alloc"
    [ ("cast path", [ Alcotest.test_case "minor words per cast" `Quick test_budget ]);
      ("driver", [ Alcotest.test_case "minor words per idle step" `Quick test_idle_step ]) ]
