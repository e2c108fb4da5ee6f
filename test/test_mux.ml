(* Multi-group socket multiplexing: many groups interleaved over one
   shared socket pair with no cross-group leakage, and unknown-gid
   frames dropped and counted — the demux invariants behind the
   hierarchical deployment grid. Virtual time, deterministic. *)

open Horus
module T = Horus_transport

let spec = "MBRSHIP:NAK:COM"

(* Two sockets, [g] groups; socket 0 hosts one member of every group,
   socket 1 the other. Each group casts its own tagged payloads,
   interleaved across groups; every member must deliver exactly its
   own group's stream and nothing else. *)
let interleaved_no_leakage () =
  let g = 3 and casts_each = 20 in
  let world = World.create ~seed:3 () in
  let hub = T.Loopback.hub ~latency:0.0005 (World.engine world) in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let sockets =
    Array.init 2 (fun s -> T.Loopback.create ~addr:(Printf.sprintf "mem:%d" s) hub)
  in
  let muxes = Array.map (fun b -> Transport_link.mux link ~backend:b ~peers) sockets in
  (* Endpoint (j, s): member s of group j, eid j*2+s, on socket s. *)
  let endpoints =
    Array.init g (fun j ->
        Array.init 2 (fun s ->
            let eid = (j * 2) + s in
            T.Peers.add peers ~rank:eid ~addr:sockets.(s).T.Backend.local_addr;
            Transport_link.mux_endpoint link muxes.(s) ~rank:eid ~spec))
  in
  let gids = Array.init g (fun _ -> World.fresh_group_addr world) in
  let groups =
    Array.init g (fun j ->
        let founder = Group.join endpoints.(j).(0) gids.(j) in
        let other =
          Group.join ~contact:(Group.addr founder) endpoints.(j).(1) gids.(j)
        in
        [| founder; other |])
  in
  World.run_for world ~duration:2.0;
  Array.iteri
    (fun j grs ->
       Array.iter
         (fun gr ->
            match Group.view gr with
            | Some v -> Alcotest.(check int) "group formed" 2 (View.size v)
            | None -> Alcotest.failf "group %d: no view" j)
         grs)
    groups;
  (* Interleave: at each tick every group casts once, alternating the
     casting member, so frames for all gids mingle on both sockets. *)
  for k = 0 to casts_each - 1 do
    Array.iteri
      (fun j grs -> Group.cast grs.(k mod 2) (Printf.sprintf "g%d-%d" j k))
      groups;
    World.run_for world ~duration:0.01
  done;
  World.run_for world ~duration:1.0;
  let expected j = List.init casts_each (fun k -> Printf.sprintf "g%d-%d" j k) in
  Array.iteri
    (fun j grs ->
       Array.iteri
         (fun s gr ->
            let got = Group.casts gr in
            Alcotest.(check (list string))
              (Printf.sprintf "group %d member %d: exactly its own stream" j s)
              (expected j) got;
            List.iter
              (fun p ->
                 if not (String.length p > 1 && p.[1] = Char.chr (Char.code '0' + j))
                 then Alcotest.failf "group %d member %d leaked payload %s" j s p)
              got)
         grs)
    groups;
  Alcotest.(check int) "no unknown-gid drops" 0 (Transport_link.unknown_gid link)

(* A same-socket second member of an already-hosted group must be
   rejected: the frame header has no destination, so the demux cannot
   tell two local members of one gid apart. *)
let duplicate_gid_rejected () =
  let world = World.create ~seed:4 () in
  let hub = T.Loopback.hub (World.engine world) in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let b = T.Loopback.create ~addr:"mem:0" hub in
  let m = Transport_link.mux link ~backend:b ~peers in
  T.Peers.add peers ~rank:0 ~addr:b.T.Backend.local_addr;
  T.Peers.add peers ~rank:1 ~addr:b.T.Backend.local_addr;
  let e0 = Transport_link.mux_endpoint link m ~rank:0 ~spec in
  let e1 = Transport_link.mux_endpoint link m ~rank:1 ~spec in
  let gid = World.fresh_group_addr world in
  let _founder = Group.join e0 gid in
  match Group.join e1 gid with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "second member of one gid on one socket was accepted"

(* Frames whose gid no local stack has joined are dropped and counted
   in [transport.unknown_gid] — rank traffic for a group this socket
   never joined must not reach any endpoint. *)
let unknown_gid_counted () =
  let world = World.create ~seed:5 () in
  let hub = T.Loopback.hub ~latency:0.0005 (World.engine world) in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let sockets =
    Array.init 2 (fun s -> T.Loopback.create ~addr:(Printf.sprintf "mem:%d" s) hub)
  in
  let muxes = Array.map (fun b -> Transport_link.mux link ~backend:b ~peers) sockets in
  T.Peers.add peers ~rank:0 ~addr:sockets.(0).T.Backend.local_addr;
  T.Peers.add peers ~rank:1 ~addr:sockets.(1).T.Backend.local_addr;
  let e0 = Transport_link.mux_endpoint link muxes.(0) ~rank:0 ~spec in
  let e1 = Transport_link.mux_endpoint link muxes.(1) ~rank:1 ~spec in
  let gid = World.fresh_group_addr world in
  let founder = Group.join e0 gid in
  let other = Group.join ~contact:(Group.addr founder) e1 gid in
  World.run_for world ~duration:1.0;
  Group.cast founder "hello";
  World.run_for world ~duration:0.5;
  Alcotest.(check (list string)) "joined gid delivers" [ "hello" ] (Group.casts other);
  (* P11 over the shared socket: the source COM reports is the frame's. *)
  (match List.rev (Group.deliveries other) with
   | d :: _ ->
     Alcotest.(check (option int)) "sender's rank" (Group.my_rank founder) (Some d.Group.rank);
     Alcotest.(check int) "sender's endpoint id" 0 (Horus_layers.Com.src_of d.Group.meta)
   | [] -> Alcotest.fail "no delivery");
  Alcotest.(check int) "no unknown gids yet" 0 (Transport_link.unknown_gid link);
  let com_counts () =
    let rejected = Metrics.count (Metrics.counter (World.metrics world) "layers.COM.rejected") in
    match Group.focus other "COM" with
    | None -> Alcotest.fail "no COM layer"
    | Some l ->
      Scanf.sscanf (List.nth (l.Horus_hcpi.Layer.dump ()) 1)
        "sent=%_d received=%_d filtered=%d" (fun f -> (rejected, f))
  in
  let rejected0, filtered0 = com_counts () in
  (* Inject valid frames for a gid neither socket has joined, plus two
     for the live gid: a well-formed COM cast from an unknown source
     and one under the old 9-byte envelope (magic 0x4855, length,
     kind, source) from the founder. Only the dead gid counts as
     unknown; COM filters the outsider and rejects the old envelope. *)
  let stray =
    T.Frame.encode ~src:(Addr.endpoint 99) ~group:(Addr.group 424242)
      (Bytes.of_string "stray")
  in
  let cast_frame ~src ~old payload =
    let m = Msg.create payload in
    if old then Msg.push_u32 m src;
    Msg.push_u8 m 0;
    Msg.push_u16 m (Msg.length m);
    Msg.push_u16 m (if old then 0x4855 else Horus_layers.Com.magic);
    T.Frame.encode ~src:(Addr.endpoint src) ~group:gid (Msg.to_bytes m)
  in
  sockets.(0).T.Backend.send ~dest:sockets.(1).T.Backend.local_addr stray;
  sockets.(1).T.Backend.send ~dest:sockets.(0).T.Backend.local_addr stray;
  sockets.(0).T.Backend.send ~dest:sockets.(1).T.Backend.local_addr
    (cast_frame ~src:99 ~old:false "outsider");
  sockets.(0).T.Backend.send ~dest:sockets.(1).T.Backend.local_addr
    (cast_frame ~src:0 ~old:true "old envelope");
  World.run_for world ~duration:0.5;
  Alcotest.(check int) "both strays dropped and counted" 2
    (Transport_link.unknown_gid link);
  let rejected1, filtered1 = com_counts () in
  Alcotest.(check int) "outsider's cast filtered" (filtered0 + 1) filtered1;
  Alcotest.(check int) "old envelope rejected" (rejected0 + 1) rejected1;
  Alcotest.(check (list string)) "no phantom delivery" [ "hello" ] (Group.casts other);
  (* The metric mirrors the counter (exporters run at snapshot time). *)
  ignore (World.metrics_json world);
  Alcotest.(check int) "transport.unknown_gid metric" 2
    (Horus_obs.Metrics.count
       (Horus_obs.Metrics.counter (World.metrics world) "transport.unknown_gid"))

(* The property behind [interleaved_no_leakage]: for ANY group count,
   cast budget, world seed and per-tick interleaving order, every
   member demuxes exactly its own group's stream, in order, with zero
   unknown-gid drops. The interleaving derives from [mix]: each tick
   visits the groups in a rotated order and alternates the caster. *)
let demux_no_leakage ~g ~casts_each ~seed ~mix =
  let world = World.create ~seed () in
  let hub = T.Loopback.hub ~latency:0.0005 (World.engine world) in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let sockets =
    Array.init 2 (fun s -> T.Loopback.create ~addr:(Printf.sprintf "mem:%d" s) hub)
  in
  let muxes = Array.map (fun b -> Transport_link.mux link ~backend:b ~peers) sockets in
  let endpoints =
    Array.init g (fun j ->
        Array.init 2 (fun s ->
            let eid = (j * 2) + s in
            T.Peers.add peers ~rank:eid ~addr:sockets.(s).T.Backend.local_addr;
            Transport_link.mux_endpoint link muxes.(s) ~rank:eid ~spec))
  in
  let gids = Array.init g (fun _ -> World.fresh_group_addr world) in
  let groups =
    Array.init g (fun j ->
        let founder = Group.join endpoints.(j).(0) gids.(j) in
        let other =
          Group.join ~contact:(Group.addr founder) endpoints.(j).(1) gids.(j)
        in
        [| founder; other |])
  in
  World.run_for world ~duration:2.0;
  for k = 0 to casts_each - 1 do
    for i = 0 to g - 1 do
      let j = (i + k + mix) mod g in
      Group.cast groups.(j).((k + mix) mod 2) (Printf.sprintf "g%d-%d" j k)
    done;
    World.run_for world ~duration:0.01
  done;
  World.run_for world ~duration:1.0;
  let expected j = List.init casts_each (fun k -> Printf.sprintf "g%d-%d" j k) in
  Transport_link.unknown_gid link = 0
  && Array.for_all
       (fun j -> Array.for_all (fun gr -> Group.casts gr = expected j) groups.(j))
       (Array.init g (fun j -> j))

let demux_prop =
  QCheck.Test.make ~name:"any interleaving demuxes with no leakage" ~count:12
    QCheck.(
      quad (int_range 2 4) (int_range 1 10) (int_range 0 10_000) (int_range 0 97))
    (fun (g, casts_each, seed, mix) -> demux_no_leakage ~g ~casts_each ~seed ~mix)

let () =
  Alcotest.run "mux"
    [ ( "demux",
        [ Alcotest.test_case "interleaved groups, no cross-group leakage" `Quick
            interleaved_no_leakage;
          Alcotest.test_case "one member per gid per socket" `Quick
            duplicate_gid_rejected;
          Alcotest.test_case "unknown gid dropped and counted" `Quick
            unknown_gid_counted;
          QCheck_alcotest.to_alcotest demux_prop ] ) ]
