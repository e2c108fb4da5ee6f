(* Who owns a message's bytes.

   A datagram handed to a backend's rx callback belongs to the callee,
   and the link's message adopts it without a copy; NAK's
   retransmission ring and the membership layers' unstable store keep
   frozen aliases (Msg.freeze) of the messages that travel on, not
   copies. These tests pin the three rules that make that safe:

   - an application may write to every message it is delivered, and
     what NAK retransmits and what a flush forwards stay the bytes
     that were sent (over the simulated net, whose receivers copy, and
     over loopback backends, whose receivers adopt);
   - no backend hands the same bytes to two rx calls, or to an rx call
     and the sender;
   - no delivered (hence logged) message keeps a buffer alive that is
     much larger than itself: a socket's 64 KiB receive buffer or a
     batched rx ring is never aliased.

   The real-UDP retention checks run only when HORUS_UDP_TESTS=1, like
   test_transport's. *)

open Horus
module T = Horus_transport

let spec = "MBRSHIP:FRAG:NAK:COM"

(* What a careless application might do to a delivered message:
   rewrite its first byte, push a header, append a trailer. *)
let scribble m =
  if Msg.length m > 0 then Msg.push_u8 m (Msg.pop_u8 m lxor 0xff);
  Msg.push_u32 m 0xdeadbeef;
  Msg.append m (Bytes.of_string "scribbled")

(* --- networks ---------------------------------------------------- *)

(* [n] endpoints on one world, and a way to split them into islands
   (lists of endpoint indices) and heal them. *)
type net = {
  world : World.t;
  eps : Endpoint.t array;
  split : int list list -> unit;
  heal : unit -> unit;
}

(* The simulated net: every receiver copies the shared frame. *)
let sim_net ?(spec = spec) n =
  let world = World.create ~seed:1 () in
  let eps = Array.init n (fun _ -> Endpoint.create world ~spec) in
  let net = World.net world in
  { world;
    eps;
    split =
      (fun islands ->
         Horus_sim.Net.partition net (List.map (List.map (fun i -> Endpoint.node eps.(i))) islands));
    heal = (fun () -> Horus_sim.Net.heal net) }

(* Loopback backends behind a Transport_link: every receiver adopts its
   datagram. Islands are Chaos blocks between ranks. *)
let loopback_net ?(spec = spec) n =
  let world = World.create ~seed:1 () in
  let engine = World.engine world in
  let hub = T.Loopback.hub engine in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let chaos = T.Chaos.create ~engine ~peers ~seed:1 T.Chaos.default in
  let eps =
    Array.init n (fun r ->
        let b = T.Loopback.create ~addr:(Printf.sprintf "mem:%d" r) hub in
        T.Peers.add peers ~rank:r ~addr:b.T.Backend.local_addr;
        Transport_link.endpoint link ~backend:(T.Chaos.wrap ~rank:r chaos b) ~peers ~rank:r
          ~spec)
  in
  { world;
    eps;
    split =
      (fun islands ->
         T.Chaos.heal chaos;
         List.iter
           (fun from_island ->
              List.iter
                (fun to_island ->
                   if from_island != to_island then
                     List.iter
                       (fun f ->
                          List.iter (fun t -> T.Chaos.block chaos ~from_rank:f ~to_rank:t) to_island)
                       from_island)
                islands)
           islands);
    heal = (fun () -> T.Chaos.heal chaos) }

(* Join every endpoint to one group, founder first, and let the view
   settle. *)
let form net =
  let g = World.fresh_group_addr net.world in
  let founder = Group.join net.eps.(0) g in
  World.run_for net.world ~duration:0.2;
  let rest =
    List.init
      (Array.length net.eps - 1)
      (fun i ->
         let gr = Group.join ~contact:(Group.addr founder) net.eps.(i + 1) g in
         World.run_for net.world ~duration:0.5;
         gr)
  in
  World.run_for net.world ~duration:2.0;
  let groups = founder :: rest in
  List.iter
    (fun gr ->
       match Group.view gr with
       | Some v when View.size v = List.length groups -> ()
       | _ -> Alcotest.fail "the members did not settle into one view")
    groups;
  groups

(* Every member writes to every message it is delivered; the group
   handle has already recorded the bytes as delivered. *)
let scribble_deliveries groups =
  List.iter
    (fun gr ->
       Group.set_on_up gr (function
         | Event.U_cast (_, m, _) | Event.U_send (_, m, _) -> scribble m
         | _ -> ()))
    groups

(* Retransmissions by every NAK in the world. *)
let rexmits world =
  Horus_obs.Metrics.(count (counter (World.metrics world) "nak.retransmits"))

(* --- the application writes to what it is delivered -------------- *)

(* A member cut off while the sender casts is repaired from the
   sender's retransmission ring after the heal. The sender's own
   delivery of each cast — the very message NAK froze — was scribbled
   on meanwhile. *)
let lagging_member_repaired make () =
  let net = make 3 in
  let groups = form net in
  let a, c = match groups with [ a; _; c ] -> (a, c) | _ -> assert false in
  scribble_deliveries groups;
  net.split [ [ 0; 1 ]; [ 2 ] ];
  let sent = List.init 5 (fun k -> Printf.sprintf "lag-%d" k) in
  List.iteri
    (fun k p -> World.after net.world ~delay:(0.01 *. float_of_int k) (fun () -> Group.cast a p))
    sent;
  World.run_for net.world ~duration:0.1;
  Alcotest.(check (list string)) "the cut-off member has nothing yet" [] (Group.casts c);
  net.heal ();
  World.run_for net.world ~duration:2.0;
  Alcotest.(check bool) "the sender retransmitted" true (rexmits net.world > 0);
  List.iteri
    (fun i gr ->
       Alcotest.(check (list string)) (Printf.sprintf "member %d delivered the sent bytes" i) sent
         (Group.casts gr))
    groups

(* Figure 2: only C receives D's cast M, and D crashes. C delivered M
   and scribbled on it; the flush still forwards M, as sent, from C's
   unstable store to A and B. *)
let flush_forwards_sent_bytes make () =
  let net = make 4 in
  let groups = form net in
  let a, b, c, d = match groups with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false in
  scribble_deliveries groups;
  net.split [ [ 0; 1 ]; [ 2; 3 ] ];
  Group.cast d "M, as sent";
  World.run_for net.world ~duration:0.02;
  Alcotest.(check (list string)) "only C has M" [ "M, as sent" ] (Group.casts c);
  Endpoint.crash (Group.endpoint d);
  net.heal ();
  World.run_for net.world ~duration:5.0;
  List.iteri
    (fun i gr ->
       Alcotest.(check (list string)) (Printf.sprintf "survivor %d delivered M once, intact" i)
         [ "M, as sent" ] (Group.casts gr);
       match Group.view gr with
       | Some v -> Alcotest.(check int) (Printf.sprintf "survivor %d: D excluded" i) 3 (View.size v)
       | None -> Alcotest.fail "no view")
    [ a; b; c ]

(* Subset sends, one fragmented and one not, to a subset with and
   without the sender in it: FRAG hands its fragments down without a
   copy of its own, and every destination delivers the sent bytes. *)
let subset_sends_intact () =
  let net = sim_net ~spec:"MBRSHIP:FRAG(frag_size=16):NAK:COM" 3 in
  let groups = form net in
  let a, b, c = match groups with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  scribble_deliveries groups;
  let small = "short one" and big = String.init 100 (fun i -> Char.chr (65 + (i mod 26))) in
  Group.send a [ Group.addr b; Group.addr c ] small;
  Group.send a [ Group.addr b; Group.addr c ] big;
  Group.send a [ Group.addr a; Group.addr b ] small;
  Group.send a [ Group.addr a; Group.addr b ] big;
  World.run_for net.world ~duration:1.0;
  let sends gr =
    List.filter_map
      (fun d -> if d.Group.kind = `Send then Some d.Group.payload else None)
      (Group.deliveries gr)
  in
  Alcotest.(check (list string)) "b" [ small; big; small; big ] (sends b);
  Alcotest.(check (list string)) "c" [ small; big ] (sends c);
  Alcotest.(check (list string)) "the sender" [ small; big ] (sends a)

(* --- backends never share received bytes -------------------------- *)

let check_exclusive what ~sent got =
  let all = sent :: got in
  List.iteri
    (fun i x ->
       List.iteri
         (fun j y ->
            if i < j && x == y then
              Alcotest.failf "%s: two of the sender and %d deliveries share bytes" what
                (List.length got))
         all)
    all

let loopback_exclusive () =
  let engine = Horus_sim.Engine.create () in
  let hub = T.Loopback.hub engine in
  let mk r = T.Loopback.create ~addr:(Printf.sprintf "mem:%d" r) hub in
  let a = mk 0 and b = mk 1 and c = mk 2 in
  let got = ref [] in
  let collect ~src:_ bytes = got := bytes :: !got in
  b.T.Backend.set_rx collect;
  c.T.Backend.set_rx collect;
  let frame = Bytes.of_string "one frame, many destinations" in
  List.iter (fun dest -> a.T.Backend.send ~dest frame) [ "mem:1"; "mem:2"; "mem:1" ];
  Horus_sim.Engine.run engine;
  Alcotest.(check int) "three deliveries" 3 (List.length !got);
  check_exclusive "loopback" ~sent:frame !got

let chaos_exclusive () =
  List.iter
    (fun (what, profile) ->
       let engine = Horus_sim.Engine.create () in
       let hub = T.Loopback.hub engine in
       let mk r = T.Loopback.create ~addr:(Printf.sprintf "mem:%d" r) hub in
       let a = mk 0 and b = mk 1 and c = mk 2 in
       let chaos = T.Chaos.create ~engine ~seed:7 profile in
       let wa = T.Chaos.wrap ~rank:0 chaos a in
       let got = ref [] in
       let collect ~src:_ bytes = got := bytes :: !got in
       b.T.Backend.set_rx collect;
       c.T.Backend.set_rx collect;
       let frame = Bytes.of_string "duplicated" in
       List.iter (fun dest -> wa.T.Backend.send ~dest frame) [ "mem:1"; "mem:2"; "mem:1" ];
       Horus_sim.Engine.run engine;
       Alcotest.(check int) (what ^ ": every send and its duplicate") 6 (List.length !got);
       check_exclusive what ~sent:frame !got)
    [ ("chaos duplicate", { T.Chaos.default with duplicate = 1.0 });
      ("chaos duplicate+corrupt", { T.Chaos.default with duplicate = 1.0; corrupt = 1.0 }) ]

let bypass_exclusive () =
  let engine = Horus_sim.Engine.create () in
  let hub = T.Loopback.hub engine in
  let b0 = T.Loopback.create ~addr:"mem:0" hub and b1 = T.Loopback.create ~addr:"mem:1" hub in
  let f = T.Shard.create 2 in
  let owner = function "mem:0" -> Some 0 | "mem:1" -> Some 1 | _ -> None in
  let w0 = T.Shard.bypass f ~me:0 ~lookup:owner b0 in
  let w1 = T.Shard.bypass f ~me:1 ~lookup:owner b1 in
  let got = ref [] in
  w1.T.Backend.set_rx (fun ~src:_ bytes -> got := bytes :: !got);
  let frame = Bytes.of_string "through the mailbox" in
  w0.T.Backend.send ~dest:"mem:1" frame;
  w0.T.Backend.send ~dest:"mem:1" frame;
  Alcotest.(check int) "both drained" 2 (w1.T.Backend.poll ());
  check_exclusive "Shard.bypass" ~sent:frame !got

(* --- retention ----------------------------------------------------- *)

(* Bytes a delivered message's buffer may hold beyond the message: a
   Msg's default headroom, the headers the stack popped, and the frame
   around the payload. The unstable store and NAK's ring keep aliases
   of such buffers, so this bounds what each entry keeps alive. *)
let stack_headers = 64

let retention_slack = 64 + stack_headers + T.Frame.overhead

let casts = [ String.make 64 's'; String.init 5000 (fun i -> Char.chr (97 + (i mod 26))) ]

(* Record the largest overhang of any delivered cast's buffer. *)
let watch_buffers groups =
  let worst = ref 0 and seen = ref 0 in
  List.iter
    (fun gr ->
       Group.set_on_up gr (function
         | Event.U_cast (_, m, _) ->
           let buf, _, len = Msg.view m in
           incr seen;
           worst := Int.max !worst (Bytes.length buf - len)
         | _ -> ()))
    groups;
  (worst, seen)

let check_retention what ~worst ~seen ~expected =
  Alcotest.(check int) (what ^ ": every cast delivered everywhere") expected seen;
  if worst > retention_slack then
    Alcotest.failf "%s: a delivered buffer overhangs its message by %d bytes (bound %d)" what
      worst retention_slack

let loopback_retention () =
  let net = loopback_net ~spec:"TOTAL:MBRSHIP:FRAG:NAK:COM" 3 in
  let groups = form net in
  let worst, seen = watch_buffers groups in
  List.iter (Group.cast (List.hd groups)) casts;
  World.run_for net.world ~duration:1.0;
  check_retention "loopback" ~worst:!worst ~seen:!seen ~expected:(3 * List.length casts)

let udp_retention ~batch () =
  let world = World.create () in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let backends = List.init 3 (fun _ -> T.Udp.create ~batch ~bind:"127.0.0.1:0" ()) in
  List.iteri
    (fun r (b : T.Backend.t) -> T.Peers.add peers ~rank:r ~addr:b.T.Backend.local_addr)
    backends;
  let eps =
    List.mapi
      (fun r backend ->
         Transport_link.endpoint link ~backend ~peers ~rank:r ~spec:"TOTAL:MBRSHIP:FRAG:NAK:COM")
      backends
  in
  let driver = T.Driver.create (World.engine world) backends in
  let g = World.fresh_group_addr world in
  let founder = Group.join (List.hd eps) g in
  let groups = founder :: List.map (fun ep -> Group.join ~contact:(Group.addr founder) ep g) (List.tl eps) in
  Alcotest.(check bool) "view agreement over UDP" true
    (T.Driver.run_until ~timeout:15.0 driver (fun () ->
         List.for_all
           (fun gr -> match Group.view gr with Some v -> View.size v = 3 | None -> false)
           groups));
  let worst, seen = watch_buffers groups in
  List.iter (Group.cast founder) casts;
  let expected = 3 * List.length casts in
  ignore (T.Driver.run_until ~timeout:15.0 driver (fun () -> !seen >= expected));
  check_retention
    (Printf.sprintf "udp batch=%d" batch)
    ~worst:!worst ~seen:!seen ~expected;
  List.iter (fun (b : T.Backend.t) -> b.T.Backend.close ()) backends

let udp_enabled = Sys.getenv_opt "HORUS_UDP_TESTS" = Some "1"

let () =
  Alcotest.run "ownership"
    ([ ( "delivered messages",
         [ Alcotest.test_case "lagging member repaired (sim net)" `Quick
             (lagging_member_repaired (fun n -> sim_net n));
           Alcotest.test_case "lagging member repaired (loopback)" `Quick
             (lagging_member_repaired (fun n -> loopback_net n));
           Alcotest.test_case "flush forwards sent bytes (sim net)" `Quick
             (flush_forwards_sent_bytes (fun n -> sim_net n));
           Alcotest.test_case "flush forwards sent bytes (loopback)" `Quick
             (flush_forwards_sent_bytes (fun n -> loopback_net n));
           Alcotest.test_case "subset sends intact" `Quick subset_sends_intact ] );
       ( "backends",
         [ Alcotest.test_case "loopback copies per destination" `Quick loopback_exclusive;
           Alcotest.test_case "chaos copies duplicates" `Quick chaos_exclusive;
           Alcotest.test_case "bypass copies at the post" `Quick bypass_exclusive ] );
       ("retention", [ Alcotest.test_case "loopback" `Quick loopback_retention ]) ]
     @
     if udp_enabled then
       [ ( "udp",
           [ Alcotest.test_case "retention, scalar rx" `Quick (udp_retention ~batch:0);
             Alcotest.test_case "retention, batched rx" `Quick (udp_retention ~batch:32) ] ) ]
     else [])
