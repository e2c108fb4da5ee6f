(* Integration tests for the COM bottom layer and the stack plumbing,
   through the public API. *)

open Horus

let default_settle = 0.1

let mk_pair ?(spec = "COM") ?(config = Horus_sim.Net.default_config) () =
  let world = World.create ~config () in
  let g = World.fresh_group_addr world in
  let a = Group.join (Endpoint.create world ~spec) g in
  let b = Group.join ~contact:(Group.addr a) (Endpoint.create world ~spec) g in
  (* COM fabricates pairwise views from the join contact; install the
     symmetric dest set at the founder too. *)
  let v =
    View.create ~group:g ~ltime:0
      ~members:(List.sort Addr.compare_endpoint [ Group.addr a; Group.addr b ])
  in
  Group.install_view a v;
  Group.install_view b v;
  (world, a, b)

let test_cast_delivers () =
  let world, a, b = mk_pair () in
  Group.cast a "hello";
  World.run_for world ~duration:default_settle;
  Alcotest.(check (list string)) "b got it" [ "hello" ] (Group.casts b);
  Alcotest.(check (list string)) "a loopback" [ "hello" ] (Group.casts a)

(* --- P11: COM takes the source address from the attachment --- *)

(* Two COM-only members [a] and [b] in one symmetric view, over one
   attachment shape, and a way to hand [b] a raw datagram (COM envelope
   and payload) as if endpoint id [src] had sent it. *)
type rig = {
  world : World.t;
  a : Group.t;
  b : Group.t;
  inject : src:int -> Bytes.t -> unit;
}

let sim_rig () =
  let world, a, b = mk_pair () in
  let gid = Addr.group_id (Group.group b) in
  let inject ~src payload =
    let frame = Bytes.create (4 + Bytes.length payload) in
    Bytes.set_int32_be frame 0 (Int32.of_int gid);
    Bytes.blit payload 0 frame 4 (Bytes.length payload);
    Horus_sim.Net.send (World.net world) ~src ~dst:(Endpoint.node (Group.endpoint b)) frame
  in
  { world; a; b; inject }

(* Each member on a dedicated Loopback socket ([Transport_link.attach]). *)
let link_rig () =
  let module T = Transport in
  let world = World.create () in
  let hub = T.Loopback.hub ~latency:0.0005 (World.engine world) in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let sockets = Array.init 2 (fun r -> T.Loopback.create ~addr:(Printf.sprintf "mem:%d" r) hub) in
  Array.iteri (fun r s -> T.Peers.add peers ~rank:r ~addr:s.T.Backend.local_addr) sockets;
  let ep r = Transport_link.endpoint link ~backend:sockets.(r) ~peers ~rank:r ~spec:"COM" in
  let g = World.fresh_group_addr world in
  let a = Group.join (ep 0) g in
  let b = Group.join ~contact:(Group.addr a) (ep 1) g in
  let v = View.create ~group:g ~ltime:0 ~members:[ Group.addr a; Group.addr b ] in
  Group.install_view a v;
  Group.install_view b v;
  let inject ~src payload =
    sockets.(0).T.Backend.send ~dest:sockets.(1).T.Backend.local_addr
      (T.Frame.encode ~src:(Addr.endpoint src) ~group:g payload)
  in
  { world; a; b; inject }

let rigs = [ ("sim", sim_rig); ("loopback link", link_rig) ]

(* COM's rejections, from the world's registry, and its [filtered]
   count, from its dump. *)
let com_counts g =
  let metrics = World.metrics (Endpoint.world (Group.endpoint g)) in
  let rejected = Metrics.count (Metrics.counter metrics "layers.COM.rejected") in
  match Group.focus g "COM" with
  | None -> Alcotest.fail "no COM layer"
  | Some l ->
    Scanf.sscanf (List.nth (l.Horus_hcpi.Layer.dump ()) 1)
      "sent=%_d received=%_d filtered=%d" (fun f -> (rejected, f))

(* A cast datagram under COM's envelope: magic, length, kind. *)
let envelope payload =
  let m = Msg.create payload in
  Msg.push_u8 m 0;
  Msg.push_u16 m (Msg.length m);
  Msg.push_u16 m Horus_layers.Com.magic;
  Msg.to_bytes m

(* The same cast as a peer that still stamps the 9-byte envelope sends
   it: magic 0x4855, length, kind, then its own endpoint id. *)
let old_envelope ~src payload =
  let m = Msg.create payload in
  Msg.push_u32 m src;
  Msg.push_u8 m 0;
  Msg.push_u16 m (Msg.length m);
  Msg.push_u16 m 0x4855;
  Msg.to_bytes m

let test_cast_ranks () =
  List.iter
    (fun (name, rig) ->
       let { world; a; b; _ } = rig () in
       Group.cast a "from a";
       World.run_for world ~duration:default_settle;
       match Group.deliveries b with
       | [ d ] ->
         let rank_a =
           match Group.view b with
           | Some v -> Option.get (View.rank_of v (Group.addr a))
           | None -> Alcotest.fail "no view at b"
         in
         Alcotest.(check int) (name ^ ": source rank") rank_a d.Group.rank;
         Alcotest.(check int) (name ^ ": src_eid meta")
           (Addr.endpoint_id (Group.addr a))
           (Horus_layers.Com.src_of d.Group.meta)
       | ds -> Alcotest.failf "%s: expected 1 delivery, got %d" name (List.length ds))
    rigs

(* An outsider's cast is filtered, and an old-magic envelope from a
   member is rejected and counted, not misparsed. *)
let test_p11_every_attachment () =
  List.iter
    (fun (name, rig) ->
       let { world; a; b; inject } = rig () in
       World.run_for world ~duration:default_settle;
       let rejected0, filtered0 = com_counts b in
       inject ~src:99 (envelope "outsider");
       World.run_for world ~duration:default_settle;
       let rejected1, filtered1 = com_counts b in
       Alcotest.(check int) (name ^ ": outsider filtered") (filtered0 + 1) filtered1;
       Alcotest.(check int) (name ^ ": outsider not rejected") rejected0 rejected1;
       let a_eid = Addr.endpoint_id (Group.addr a) in
       inject ~src:a_eid (old_envelope ~src:a_eid "old");
       World.run_for world ~duration:default_settle;
       let rejected2, filtered2 = com_counts b in
       Alcotest.(check int) (name ^ ": old envelope rejected") (rejected1 + 1) rejected2;
       Alcotest.(check int) (name ^ ": old envelope not filtered") filtered1 filtered2;
       inject ~src:a_eid (envelope "member");
       World.run_for world ~duration:default_settle;
       Alcotest.(check (list string)) (name ^ ": only the member's cast delivered")
         [ "member" ] (Group.casts b))
    rigs

let test_send_subset () =
  let world, a, b = mk_pair () in
  Group.send a [ Group.addr b ] "direct";
  World.run_for world ~duration:default_settle;
  Alcotest.(check int) "b got send" 1 (List.length (Group.deliveries b));
  Alcotest.(check int) "a got nothing" 0 (List.length (Group.deliveries a));
  match Group.deliveries b with
  | [ d ] -> Alcotest.(check bool) "kind send" true (d.Group.kind = `Send)
  | _ -> Alcotest.fail "expected one"

let test_no_loopback_without_self_in_send () =
  let world, a, b = mk_pair () in
  Group.send a [ Group.addr a; Group.addr b ] "both";
  World.run_for world ~duration:default_settle;
  Alcotest.(check int) "a loopback send" 1 (List.length (Group.deliveries a));
  Alcotest.(check int) "b send" 1 (List.length (Group.deliveries b))

let test_filter_spurious_cast () =
  (* c is not in the (a,b) dest set; its casts must be filtered. *)
  let world, a, b = mk_pair () in
  let g = Group.group a in
  let c = Group.join (Endpoint.create world ~spec:"COM") g in
  let v_abc =
    View.create ~group:g ~ltime:1
      ~members:(List.sort Addr.compare_endpoint [ Group.addr a; Group.addr b; Group.addr c ])
  in
  (* c believes it is in a 3-member group, but a and b keep the pair
     view, so c's casts reach them as spurious. *)
  Group.install_view c v_abc;
  Group.cast c "intruder";
  World.run_for world ~duration:default_settle;
  Alcotest.(check int) "a filtered" 0 (List.length (Group.deliveries a));
  Alcotest.(check int) "b filtered" 0 (List.length (Group.deliveries b))

let test_garbled_envelope_rejected () =
  let config = { Horus_sim.Net.default_config with garble_prob = 1.0 } in
  let world, a, b = mk_pair ~config () in
  Group.cast a "junk on the wire";
  World.run_for world ~duration:default_settle;
  (* Loopback at a does not cross the net, so a still sees its own
     cast; b sees either nothing (envelope check fired) or, rarely, a
     message whose flipped byte hit the payload only. The envelope
     check must at least never crash the stack, and the payload byte
     flip case keeps the length. *)
  List.iter
    (fun p -> Alcotest.(check int) "length preserved" 16 (String.length p))
    (Group.casts b);
  Alcotest.(check (list string)) "loopback intact" [ "junk on the wire" ] (Group.casts a)

let test_view_install_changes_dests () =
  let world, a, b = mk_pair () in
  (* Shrink a's dest set to itself; b no longer receives. *)
  let g = Group.group a in
  let v_self = View.create ~group:g ~ltime:2 ~members:[ Group.addr a ] in
  Group.install_view a v_self;
  Group.cast a "only me";
  World.run_for world ~duration:default_settle;
  Alcotest.(check int) "b no longer receives" 0 (List.length (Group.deliveries b));
  Alcotest.(check (list string)) "a still loops back" [ "only me" ] (Group.casts a)

let test_solo_join_view () =
  let world = World.create () in
  let g = World.fresh_group_addr world in
  let a = Group.join (Endpoint.create world ~spec:"COM") g in
  World.run_for world ~duration:default_settle;
  match Group.view a with
  | Some v ->
    Alcotest.(check int) "singleton" 1 (View.size v);
    Alcotest.(check (option int)) "rank 0" (Some 0) (Group.my_rank a)
  | None -> Alcotest.fail "no view"

let test_crash_stops_traffic () =
  let world, a, b = mk_pair () in
  Endpoint.crash (Group.endpoint b);
  Group.cast a "to the dead";
  World.run_for world ~duration:default_settle;
  Alcotest.(check int) "b heard nothing" 0 (List.length (Group.deliveries b))

let test_crashed_endpoint_silent () =
  let world, a, b = mk_pair () in
  Endpoint.crash (Group.endpoint a);
  Group.cast a "from the dead";
  World.run_for world ~duration:default_settle;
  Alcotest.(check int) "b heard nothing" 0 (List.length (Group.deliveries b))

let test_two_groups_one_endpoint () =
  (* The group-id frame demultiplexes two groups on the same endpoints. *)
  let world = World.create () in
  let g1 = World.fresh_group_addr world in
  let g2 = World.fresh_group_addr world in
  let e1 = Endpoint.create world ~spec:"COM" in
  let e2 = Endpoint.create world ~spec:"COM" in
  let a1 = Group.join e1 g1 in
  let b1 = Group.join ~contact:(Endpoint.addr e1) e2 g1 in
  let a2 = Group.join e1 g2 in
  let b2 = Group.join ~contact:(Endpoint.addr e1) e2 g2 in
  let pair g x y =
    let v =
      View.create ~group:g ~ltime:0
        ~members:(List.sort Addr.compare_endpoint [ Group.addr x; Group.addr y ])
    in
    Group.install_view x v;
    Group.install_view y v
  in
  pair g1 a1 b1;
  pair g2 a2 b2;
  Group.cast a1 "one";
  Group.cast a2 "two";
  World.run_for world ~duration:default_settle;
  Alcotest.(check (list string)) "g1 at b" [ "one" ] (Group.casts b1);
  Alcotest.(check (list string)) "g2 at b" [ "two" ] (Group.casts b2)

let test_trace_layer_counts () =
  let world, a, b = mk_pair ~spec:"TRACE:COM" () in
  Group.cast a "x";
  Group.cast a "y";
  World.run_for world ~duration:default_settle;
  ignore b;
  match Group.focus a "TRACE" with
  | None -> Alcotest.fail "no TRACE layer"
  | Some l ->
    (match l.Horus_hcpi.Layer.dump () with
     | [ line ] ->
       (* join + view install + two casts crossed downward. *)
       Alcotest.(check bool) "four downs counted" true
         (String.sub line 0 (String.length "down_events=4") = "down_events=4")
     | _ -> Alcotest.fail "unexpected dump")

let test_noop_layers_transparent () =
  let world, a, b = mk_pair ~spec:"NOOP:NOOP:NOOP:COM" () in
  Group.cast a "through four layers";
  World.run_for world ~duration:default_settle;
  Alcotest.(check (list string)) "delivered" [ "through four layers" ] (Group.casts b)

let test_stack_dump_and_focus () =
  let world, a, _b = mk_pair ~spec:"NOOP:COM" () in
  World.run_for world ~duration:default_settle;
  Alcotest.(check bool) "dump nonempty" true (List.length (Group.dump a) > 0);
  Alcotest.(check bool) "focus COM" true (Group.focus a "COM" <> None);
  Alcotest.(check bool) "focus unknown" true (Group.focus a "NAK" = None)

let test_destroy_emits_destroy () =
  let world, a, _b = mk_pair () in
  World.run_for world ~duration:default_settle;
  Group.destroy a;
  Alcotest.(check bool) "destroyed" true (Group.destroyed a)

let test_leave_emits_exit () =
  let world, a, _b = mk_pair () in
  World.run_for world ~duration:default_settle;
  Group.leave a;
  World.run_for world ~duration:default_settle;
  Alcotest.(check bool) "exited" true (Group.exited a)

let test_socket_facade () =
  let world = World.create () in
  let g = World.fresh_group_addr world in
  let e1 = Endpoint.create world ~spec:"COM" in
  let e2 = Endpoint.create world ~spec:"COM" in
  let s1 = Socket.create e1 g in
  let s2 = Socket.create ~contact:(Endpoint.addr e1) e2 g in
  let v =
    View.create ~group:g ~ltime:0
      ~members:(List.sort Addr.compare_endpoint [ Endpoint.addr e1; Endpoint.addr e2 ])
  in
  Group.install_view (Socket.group s1) v;
  Group.install_view (Socket.group s2) v;
  Socket.sendto s1 "datagram";
  World.run_for world ~duration:default_settle;
  (match Socket.recvfrom s2 with
   | Some (_, payload) -> Alcotest.(check string) "received" "datagram" payload
   | None -> Alcotest.fail "nothing received");
  Alcotest.(check bool) "drained" true (Socket.recvfrom s2 = None)

let test_system_error_without_membership () =
  (* Membership downcalls over a membershipless stack surface as
     SYSTEM_ERROR (Table 2) instead of vanishing. *)
  let world, a, _b = mk_pair () in
  Group.merge a (Group.addr a);
  Group.suspect a [ Group.addr a ];
  World.run_for world ~duration:default_settle;
  Alcotest.(check int) "two reports" 2 (List.length (Group.system_errors a));
  Alcotest.(check bool) "mentions membership" true
    (List.for_all
       (fun e ->
          let sub = "membership" in
          let n = String.length sub and m = String.length e in
          let rec loop i = i + n <= m && (String.sub e i n = sub || loop (i + 1)) in
          loop 0)
       (Group.system_errors a))

let () =
  Alcotest.run "com"
    [ ( "com",
        [ Alcotest.test_case "cast delivers" `Quick test_cast_delivers;
          Alcotest.test_case "cast ranks and meta" `Quick test_cast_ranks;
          Alcotest.test_case "send subset" `Quick test_send_subset;
          Alcotest.test_case "send with self" `Quick test_no_loopback_without_self_in_send;
          Alcotest.test_case "filters spurious casts" `Quick test_filter_spurious_cast;
          Alcotest.test_case "P11 from every attachment" `Quick test_p11_every_attachment;
          Alcotest.test_case "garbled envelope" `Quick test_garbled_envelope_rejected;
          Alcotest.test_case "view install changes dests" `Quick test_view_install_changes_dests;
          Alcotest.test_case "solo join" `Quick test_solo_join_view;
          Alcotest.test_case "crash stops delivery" `Quick test_crash_stops_traffic;
          Alcotest.test_case "crashed endpoint silent" `Quick test_crashed_endpoint_silent;
          Alcotest.test_case "two groups one endpoint" `Quick test_two_groups_one_endpoint ] );
      ( "stack",
        [ Alcotest.test_case "trace layer counts" `Quick test_trace_layer_counts;
          Alcotest.test_case "noop layers transparent" `Quick test_noop_layers_transparent;
          Alcotest.test_case "dump and focus" `Quick test_stack_dump_and_focus;
          Alcotest.test_case "destroy" `Quick test_destroy_emits_destroy;
          Alcotest.test_case "leave" `Quick test_leave_emits_exit;
          Alcotest.test_case "SYSTEM_ERROR without membership" `Quick
            test_system_error_without_membership ] );
      ( "socket",
        [ Alcotest.test_case "sendto/recvfrom" `Quick test_socket_facade ] ) ]
