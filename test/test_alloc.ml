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
   measured value, for the differences between OCaml releases. *)

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

(* Words per cast over the measured window. *)
let words_per_cast ~caster_spec =
  let world = World.create ~seed:1 () in
  let g = World.fresh_group_addr world in
  let delivered = ref 0 in
  let on_up = function Event.U_cast _ -> incr delivered | _ -> () in
  let join ?contact spec =
    let gr = Group.join ?contact ~on_up ~record:false (Endpoint.create world ~spec) g in
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
  let run_casts seconds =
    let n = int_of_float (seconds /. cast_period) in
    for _ = 1 to n do
      Group.cast caster payload;
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

(* About 1.25x the 397 words per cast measured at the default periods
   (OCaml 5.1.1, x86-64). *)
let ceiling = 496.0

let test_budget () =
  let default = words_per_cast ~caster_spec:stack in
  let slow = words_per_cast ~caster_spec:slow_stack in
  Printf.printf "minor words per cast: default periods %.0f, caster's periods 8x %.0f\n"
    default slow;
  if default > ceiling then
    Alcotest.failf "%.0f minor words per cast exceeds the ceiling of %.0f" default ceiling;
  if slow > 1.10 *. default then
    Alcotest.failf
      "minor words per cast grew from %.0f to %.0f (more than 10%%) with an 8x larger \
       unstable store"
      default slow

let () =
  Alcotest.run "alloc"
    [ ("cast path", [ Alcotest.test_case "minor words per cast" `Quick test_budget ]) ]
