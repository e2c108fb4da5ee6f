(* The directory service under virtual time: lease expiry and
   eviction, re-registration, clean errors for unknown ranks, and
   deterministic change-notification ordering — the semantics the
   hierarchical deployment leans on for membership bootstrap. *)

module T = Horus_transport
module D = Horus_dir

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* One service plus [n] clients, each on its own loopback socket. *)
let fabric ?(n = 1) ?(latency = 0.0005) ?sweep_period ?(seed = 11) () =
  let world = Horus.World.create ~seed () in
  let engine = Horus.World.engine world in
  let hub = T.Loopback.hub ~latency engine in
  let dir_backend = T.Loopback.create ~addr:"dir" hub in
  let dir = D.Dir_service.create ?sweep_period ~engine dir_backend in
  let clients =
    List.init n (fun i ->
        let b = T.Loopback.create ~addr:(Printf.sprintf "cl:%d" i) hub in
        let cl =
          D.Dir_client.create ~eid:(100 + i) ~engine (fun frame ->
              b.T.Backend.send ~dest:(D.Dir_service.addr dir) frame)
        in
        b.T.Backend.set_rx (fun ~src frame -> D.Dir_client.rx_frame cl ~src frame);
        cl)
  in
  (world, dir, clients)

let run world d = Horus.World.run_for world ~duration:d

(* A binding registered with a short lease and never renewed is
   evicted by the sweep; lookups then fail cleanly and subscribers see
   the removal. *)
let lease_expiry_evicts () =
  let world, dir, clients = fabric ~sweep_period:0.1 () in
  let cl = List.hd clients in
  let registered = ref None in
  D.Dir_client.subscribe cl ~group:7 (fun _ -> ());
  D.Dir_client.register cl ~group:7 ~rank:3 ~addr:"mem:0" ~lease:0.5 (fun r ->
      registered := Some r);
  run world 0.1;
  (match !registered with
   | Some (Ok (version, expires)) ->
     Alcotest.(check bool) "version bumped" true (version >= 1);
     Alcotest.(check bool) "expiry in the future" true
       (expires > Horus.World.now world)
   | Some (Error e) -> Alcotest.failf "register failed: %s" e
   | None -> Alcotest.fail "register never answered");
  Alcotest.(check int) "binding live" 1
    (List.length (D.Dir_service.entries dir ~group:7));
  (* Outlive the lease with no renewal. *)
  run world 1.0;
  Alcotest.(check int) "binding evicted" 0
    (List.length (D.Dir_service.entries dir ~group:7));
  Alcotest.(check int) "eviction counted" 1 (D.Dir_service.stats dir).D.Dir_service.s_evictions;
  (* The subscriber saw the removal as a notify with no address. *)
  Alcotest.(check bool) "removal notified" true
    ((D.Dir_client.stats cl).D.Dir_client.c_notifies >= 2);
  let looked = ref None in
  D.Dir_client.lookup cl ~group:7 ~rank:3 (fun r -> looked := Some r);
  run world 0.1;
  match !looked with
  | Some (Error e) ->
    Alcotest.(check bool) "unknown-rank error" true (contains e "unknown-rank")
  | Some (Ok a) -> Alcotest.failf "evicted binding still resolves to %s" a
  | None -> Alcotest.fail "lookup never answered"

(* Re-registration after expiry restores the binding at a strictly
   higher directory version (the version is a change counter, not a
   membership count). *)
let re_registration () =
  let world, dir, clients = fabric ~sweep_period:0.1 () in
  let cl = List.hd clients in
  D.Dir_client.register cl ~group:9 ~rank:1 ~addr:"mem:4" ~lease:0.3 (fun _ -> ());
  run world 0.1;
  let v1 = D.Dir_service.version dir ~group:9 in
  run world 1.0;
  Alcotest.(check int) "lapsed" 0 (List.length (D.Dir_service.entries dir ~group:9));
  let again = ref None in
  D.Dir_client.register cl ~group:9 ~rank:1 ~addr:"mem:5" ~lease:5.0 (fun r ->
      again := Some r);
  run world 0.1;
  (match !again with
   | Some (Ok (v2, _)) ->
     Alcotest.(check bool) "version strictly advanced" true (v2 > v1)
   | Some (Error e) -> Alcotest.failf "re-register failed: %s" e
   | None -> Alcotest.fail "re-register never answered");
  match D.Dir_service.entries dir ~group:9 with
  | [ (1, "mem:5", _) ] -> ()
  | es -> Alcotest.failf "unexpected entries (%d)" (List.length es)

(* Unknown rank and unknown group answer with typed errors, not
   timeouts. *)
let unknown_rank_error () =
  let world, _dir, clients = fabric () in
  let cl = List.hd clients in
  D.Dir_client.register cl ~group:2 ~rank:0 ~addr:"mem:0" ~lease:5.0 (fun _ -> ());
  run world 0.1;
  let r1 = ref None and r2 = ref None in
  D.Dir_client.lookup cl ~group:2 ~rank:99 (fun r -> r1 := Some r);
  D.Dir_client.lookup cl ~group:424242 ~rank:0 (fun r -> r2 := Some r);
  run world 0.1;
  (match !r1 with
   | Some (Error e) ->
     Alcotest.(check bool) "unknown-rank" true (contains e "unknown-rank")
   | Some (Ok _) -> Alcotest.fail "bogus rank resolved"
   | None -> Alcotest.fail "rank lookup never answered");
  match !r2 with
  | Some (Error e) ->
    Alcotest.(check bool) "unknown-group" true (contains e "unknown-group")
  | Some (Ok _) -> Alcotest.fail "bogus group resolved"
  | None -> Alcotest.fail "group lookup never answered"

(* Two subscribers observe the same mutation stream in the same order,
   and a second world with the same seed reproduces it byte for byte —
   notification order is part of the deterministic surface. *)
let notification_ordering () =
  let observe () =
    let world, _dir, clients = fabric ~n:2 () in
    let logs = List.map (fun _ -> ref []) clients in
    List.iter2
      (fun cl log ->
         D.Dir_client.on_notify cl (fun ~group ~version ~rank ~addr ->
             log :=
               Printf.sprintf "g%d v%d r%d %s" group version rank
                 (Option.value addr ~default:"-")
               :: !log);
         D.Dir_client.subscribe cl ~group:5 (fun _ -> ()))
      clients logs;
    Horus.World.run_for world ~duration:0.1;
    let cl = List.hd clients in
    (* A burst of mutations in one engine turn: registrations landing
       on ranks out of order, then an unregister. *)
    List.iter
      (fun (rank, addr) ->
         D.Dir_client.register cl ~group:5 ~rank ~addr ~lease:5.0 (fun _ -> ()))
      [ (3, "mem:3"); (1, "mem:1"); (2, "mem:2") ];
    Horus.World.run_for world ~duration:0.2;
    D.Dir_client.unregister cl ~group:5 ~rank:1 (fun _ -> ());
    Horus.World.run_for world ~duration:0.2;
    List.map (fun log -> List.rev !log) logs
  in
  match observe () with
  | [ a; b ] ->
    Alcotest.(check (list string)) "both subscribers, same order" a b;
    Alcotest.(check int) "all four mutations seen" 4 (List.length a);
    (match observe () with
     | [ a'; _ ] ->
       Alcotest.(check (list string)) "same world seed, same stream" a a'
     | _ -> assert false)
  | _ -> assert false

(* The renewal/sweep race, pinned at the boundary with exact dyadic
   times (zero loopback latency, power-of-two periods, so no float
   drift): the binding expires exactly on a sweep tick and the renew
   arrives at that same engine instant. One tick from eviction, the
   renew must win — the sweep's strict comparison leaves the boundary
   instant to the renewal, whichever of the two runs first. *)
let renew_at_sweep_boundary () =
  let world, dir, clients = fabric ~latency:0.0 ~sweep_period:0.0625 () in
  let cl = List.hd clients in
  let renewed = ref None in
  D.Dir_client.register cl ~group:3 ~rank:1 ~addr:"mem:1" ~lease:0.25 (fun _ -> ());
  Horus.World.at world ~time:0.25 (fun () ->
      D.Dir_client.renew cl ~group:3 ~rank:1 ~lease:0.25 (fun r -> renewed := Some r));
  run world 0.3;
  (match !renewed with
   | Some (Ok expires) ->
     Alcotest.(check bool) "lease extended past the boundary" true (expires > 0.25)
   | Some (Error e) -> Alcotest.failf "boundary renew refused: %s" e
   | None -> Alcotest.fail "boundary renew never answered");
  Alcotest.(check int) "binding kept" 1
    (List.length (D.Dir_service.entries dir ~group:3));
  Alcotest.(check int) "no eviction" 0
    (D.Dir_service.stats dir).D.Dir_service.s_evictions;
  (* With no further renewal the binding then lapses normally. *)
  run world 0.4;
  Alcotest.(check int) "then lapses" 0
    (List.length (D.Dir_service.entries dir ~group:3));
  Alcotest.(check int) "exactly one eviction" 1
    (D.Dir_service.stats dir).D.Dir_service.s_evictions

(* The same race as a property: any renewal schedule whose gaps stay
   within the lease keeps the binding alive against any sweep cadence
   (gap = 1.0 exercises the exact boundary above), and once renewals
   stop the binding is evicted exactly once. *)
let renewal_interleaving_prop =
  QCheck.Test.make ~name:"in-lease renewals always beat the sweep" ~count:30
    QCheck.(
      triple (float_range 0.2 1.0) (float_range 0.02 0.3)
        (list_of_size Gen.(int_range 1 12) (float_range 0.05 1.0)))
    (fun (lease, sweep_period, gaps) ->
       let world, dir, clients = fabric ~latency:0.0 ~sweep_period () in
       let cl = List.hd clients in
       D.Dir_client.register cl ~group:4 ~rank:9 ~addr:"mem:9" ~lease (fun _ -> ());
       let t = ref 0.0 in
       List.iter
         (fun gap ->
            t := !t +. (gap *. lease);
            Horus.World.at world ~time:!t (fun () ->
                D.Dir_client.renew cl ~group:4 ~rank:9 ~lease (fun _ -> ())))
         gaps;
       run world (!t +. 0.01);
       let kept =
         List.length (D.Dir_service.entries dir ~group:4) = 1
         && (D.Dir_service.stats dir).D.Dir_service.s_evictions = 0
       in
       run world (lease +. sweep_period +. 0.01);
       kept
       && List.length (D.Dir_service.entries dir ~group:4) = 0
       && (D.Dir_service.stats dir).D.Dir_service.s_evictions = 1)

(* --- replication --- *)

(* The replicated fabric: primary + [backups] in promotion order on
   their own sockets, [n] clients that know the whole ring. *)
let replicated_fabric ?(n = 1) ?(backups = 2) ?(promote_after = 0.4)
    ?(sweep_period = 0.1) ?(seed = 11) () =
  let world = Horus.World.create ~seed () in
  let engine = Horus.World.engine world in
  let hub = T.Loopback.hub ~latency:0.0005 engine in
  let addrs =
    List.init (backups + 1) (fun i ->
        if i = 0 then "dir" else Printf.sprintf "dir:%d" i)
  in
  let bks = List.map (fun a -> T.Loopback.create ~addr:a hub) addrs in
  let dirs =
    List.mapi
      (fun i b ->
         D.Dir_service.create ~sweep_period ~replicas:addrs ~replica_index:i
           ~promote_after ~engine b)
      bks
  in
  let clients =
    List.init n (fun i ->
        let b = T.Loopback.create ~addr:(Printf.sprintf "cl:%d" i) hub in
        let send a frame = b.T.Backend.send ~dest:a frame in
        let cl =
          D.Dir_client.create ~eid:(100 + i) ~engine
            ~backups:(List.map send (List.tl addrs))
            (send (List.hd addrs))
        in
        b.T.Backend.set_rx (fun ~src frame -> D.Dir_client.rx_frame cl ~src frame);
        cl)
  in
  (world, Array.of_list dirs, Array.of_list bks, clients, hub)

let strip es = List.map (fun (r, a, _) -> (r, a)) es

(* Every mutation the primary applies streams to the backups: bindings,
   versions and removals mirror within a delta's flight time. *)
let replication_mirrors_state () =
  let world, dirs, _bks, clients, _hub = replicated_fabric () in
  let cl = List.hd clients in
  List.iter
    (fun (rank, addr) ->
       D.Dir_client.register cl ~group:7 ~rank ~addr ~lease:5.0 (fun _ -> ()))
    [ (1, "mem:1"); (2, "mem:2"); (3, "mem:3") ];
  run world 0.3;
  Alcotest.(check string) "primary serving" "primary"
    (D.Dir_service.role_string dirs.(0));
  Alcotest.(check string) "backup waiting" "backup"
    (D.Dir_service.role_string dirs.(1));
  Alcotest.(check int) "three bindings" 3
    (List.length (D.Dir_service.entries dirs.(0) ~group:7));
  for i = 1 to 2 do
    Alcotest.(check (list (pair int string)))
      (Printf.sprintf "backup %d mirrors the bindings" i)
      (strip (D.Dir_service.entries dirs.(0) ~group:7))
      (strip (D.Dir_service.entries dirs.(i) ~group:7));
    Alcotest.(check int)
      (Printf.sprintf "backup %d mirrors the version" i)
      (D.Dir_service.version dirs.(0) ~group:7)
      (D.Dir_service.version dirs.(i) ~group:7)
  done;
  D.Dir_client.unregister cl ~group:7 ~rank:2 (fun _ -> ());
  run world 0.3;
  Alcotest.(check (list (pair int string))) "removal replicated"
    [ (1, "mem:1"); (3, "mem:3") ]
    (strip (D.Dir_service.entries dirs.(1) ~group:7))

(* A backup that starts (or restarts) behind the delta stream detects
   the sequence gap and catches up from a full snapshot. *)
let late_backup_catches_up () =
  let world = Horus.World.create ~seed:11 () in
  let engine = Horus.World.engine world in
  let hub = T.Loopback.hub ~latency:0.0005 engine in
  let addrs = [ "dir"; "dir:1" ] in
  let b0 = T.Loopback.create ~addr:"dir" hub in
  let d0 =
    D.Dir_service.create ~sweep_period:0.1 ~replicas:addrs ~replica_index:0
      ~engine b0
  in
  let cb = T.Loopback.create ~addr:"cl:0" hub in
  let send a frame = cb.T.Backend.send ~dest:a frame in
  let cl =
    D.Dir_client.create ~eid:100 ~engine ~backups:[ send "dir:1" ] (send "dir")
  in
  cb.T.Backend.set_rx (fun ~src frame -> D.Dir_client.rx_frame cl ~src frame);
  (* Mutations stream into the void: the backup's socket is not even
     bound yet, so the early deltas are dropped on the floor. *)
  List.iter
    (fun rank ->
       D.Dir_client.register cl ~group:7 ~rank
         ~addr:(Printf.sprintf "mem:%d" rank) ~lease:5.0 (fun _ -> ()))
    [ 1; 2; 3 ];
  run world 0.3;
  let b1 = T.Loopback.create ~addr:"dir:1" hub in
  let d1 =
    D.Dir_service.create ~sweep_period:0.1 ~replicas:addrs ~replica_index:1
      ~engine b1
  in
  (* The next delta (or heartbeat) shows the gap; one sync round
     rebuilds the backup from the primary's snapshot. *)
  D.Dir_client.register cl ~group:7 ~rank:4 ~addr:"mem:4" ~lease:5.0 (fun _ -> ());
  run world 0.5;
  Alcotest.(check (list (pair int string))) "backup caught up"
    (strip (D.Dir_service.entries d0 ~group:7))
    (strip (D.Dir_service.entries d1 ~group:7));
  Alcotest.(check int) "four bindings" 4
    (List.length (D.Dir_service.entries d1 ~group:7));
  Alcotest.(check bool) "a snapshot was served" true
    ((D.Dir_service.stats d0).D.Dir_service.s_syncs >= 1)

(* Kill the primary without a goodbye: the senior backup promotes
   after its silence slot under a fresh epoch, the junior one stands
   down at the first new-epoch heartbeat, and a client request issued
   into the outage completes by failover — one paid retry budget, no
   lost state, and the next request goes straight to the new
   primary. *)
let promotion_and_failover () =
  let world, dirs, bks, clients, _hub = replicated_fabric () in
  let cl = List.hd clients in
  D.Dir_client.register cl ~group:7 ~rank:3 ~addr:"mem:0" ~lease:20.0 (fun _ -> ());
  run world 0.3;
  D.Dir_service.stop dirs.(0);
  bks.(0).T.Backend.close ();
  run world 1.0;
  Alcotest.(check string) "senior backup promoted" "primary"
    (D.Dir_service.role_string dirs.(1));
  Alcotest.(check string) "junior backup stood down" "backup"
    (D.Dir_service.role_string dirs.(2));
  Alcotest.(check int) "fresh incarnation" 1 (D.Dir_service.epoch dirs.(1));
  let got = ref None in
  D.Dir_client.lookup cl ~group:7 ~rank:3 (fun r -> got := Some r);
  run world 5.0;
  (match !got with
   | Some (Ok addr) -> Alcotest.(check string) "state survived" "mem:0" addr
   | Some (Error e) -> Alcotest.failf "lookup failed across failover: %s" e
   | None -> Alcotest.fail "lookup never answered");
  let s = D.Dir_client.stats cl in
  Alcotest.(check bool) "failover paid in retries" true
    (s.D.Dir_client.c_failovers >= 1);
  (* Sticky: the next request costs exactly one send. *)
  let sent0 = s.D.Dir_client.c_sent in
  let reg = ref None in
  D.Dir_client.register cl ~group:7 ~rank:9 ~addr:"mem:9" ~lease:5.0 (fun r ->
      reg := Some r);
  run world 0.3;
  (match !reg with
   | Some (Ok _) -> ()
   | Some (Error e) -> Alcotest.failf "post-failover register failed: %s" e
   | None -> Alcotest.fail "post-failover register never answered");
  Alcotest.(check int) "straight to the new primary" (sent0 + 1)
    s.D.Dir_client.c_sent;
  Alcotest.(check (list (pair int string))) "new primary holds both"
    [ (3, "mem:0"); (9, "mem:9") ]
    (strip (D.Dir_service.entries dirs.(1) ~group:7))

(* A request that lands on a live backup is redirected, not timed out:
   Not_primary advances the client to the next replica immediately. *)
let backup_redirects_to_primary () =
  let world, dirs, _bks, clients, hub = replicated_fabric () in
  ignore clients;
  let engine = Horus.World.engine world in
  let b = T.Loopback.create ~addr:"cl:9" hub in
  let send a frame = b.T.Backend.send ~dest:a frame in
  (* This client's ring starts at a backup. *)
  let cl =
    D.Dir_client.create ~eid:199 ~engine ~backups:[ send "dir" ] (send "dir:1")
  in
  b.T.Backend.set_rx (fun ~src frame -> D.Dir_client.rx_frame cl ~src frame);
  let got = ref None in
  D.Dir_client.register cl ~group:5 ~rank:1 ~addr:"mem:1" ~lease:5.0 (fun r ->
      got := Some r);
  run world 0.3;
  (match !got with
   | Some (Ok _) -> ()
   | Some (Error e) -> Alcotest.failf "redirected register failed: %s" e
   | None -> Alcotest.fail "redirected register never answered");
  Alcotest.(check int) "one redirect honoured" 1
    (D.Dir_client.stats cl).D.Dir_client.c_redirects;
  Alcotest.(check int) "binding on the primary" 1
    (List.length (D.Dir_service.entries dirs.(0) ~group:5));
  Alcotest.(check int) "redirect counted service-side" 1
    (D.Dir_service.stats dirs.(1)).D.Dir_service.s_redirects

(* --- the wire protocol --------------------------------------------- *)

module P = D.Dir_protocol

(* One of every request and reply constructor (every [change] kind
   too). Times are whole microseconds, so the i64 wire encoding is
   exact and structural equality holds after a round trip. *)
let sample_requests =
  [ P.Register { group = 3; rank = 1; addr = "127.0.0.1:7001"; lease = 10.0 };
    P.Renew { group = 3; rank = 1; lease = 2.5 };
    P.Unregister { group = 3; rank = 1 };
    P.Lookup { group = 3; rank = 2 };
    P.List_group 3;
    P.List_groups;
    P.Subscribe 3;
    P.Unsubscribe 3;
    P.Repl_delta
      { epoch = 2; seq = 7; group = 3; version = 4;
        change = P.Ch_bind { rank = 1; addr = "cl:1"; remaining = 0.25 } };
    P.Repl_delta { epoch = 2; seq = 8; group = 3; version = 5; change = P.Ch_remove 1 };
    P.Repl_delta { epoch = 2; seq = 9; group = 3; version = 6; change = P.Ch_sub "cl:2" };
    P.Repl_delta
      { epoch = 2; seq = 10; group = 3; version = 7; change = P.Ch_unsub "cl:2" };
    P.Repl_heartbeat { epoch = 2; seq = 10 };
    P.Repl_sync { from_seq = 4 };
    P.Repl_snapshot
      { epoch = 2; seq = 10;
        groups =
          [ { P.sg_group = 3; sg_version = 7;
              sg_entries = [ (0, "cl:0", 1.5); (2, "cl:2", 0.000001) ];
              sg_subs = [ "cl:0"; "cl:2" ] };
            { P.sg_group = 4; sg_version = 1; sg_entries = []; sg_subs = [] } ] } ]

let sample_replies =
  [ P.Registered { group = 3; rank = 1; version = 2; expires = 12.125 };
    P.Found { group = 3; rank = 2; addr = "127.0.0.1:7002" };
    P.Entries { group = 3; version = 2; entries = [ (0, "a"); (1, "b") ] };
    P.Groups [ 3; 4; 0xD1C7 ];
    P.Subscribed { group = 3; version = 2 };
    P.Done;
    P.Notify { group = 3; version = 3; rank = 1; addr = Some "cl:1" };
    P.Notify { group = 3; version = 4; rank = 1; addr = None };
    P.Error { code = P.Unknown_group; detail = "g" };
    P.Error { code = P.Unknown_rank; detail = "r" };
    P.Error { code = P.Bad_request; detail = "" };
    P.Error { code = P.Not_primary; detail = "dir:1" } ]

let protocol_round_trip () =
  List.iteri
    (fun i req ->
       match P.decode_request (P.encode_request ~req_id:(i + 1) req) with
       | Ok (id, req') ->
         Alcotest.(check int) "request id" (i + 1) id;
         Alcotest.(check bool) (Printf.sprintf "request %d round-trips" i) true (req = req')
       | Error e -> Alcotest.failf "request %d does not decode: %s" i e)
    sample_requests;
  List.iteri
    (fun i rep ->
       match P.decode_reply (P.encode_reply ~req_id:(i + 1) rep) with
       | Ok (id, rep') ->
         Alcotest.(check int) "reply id" (i + 1) id;
         Alcotest.(check bool) (Printf.sprintf "reply %d round-trips" i) true (rep = rep')
       | Error e -> Alcotest.failf "reply %d does not decode: %s" i e)
    sample_replies

(* Hostile bytes: truncate, flip one bit, or extend every sample
   encoding, many times over from a fixed seed, and feed the result to
   both decoders (a reply decoder sees requests and vice versa). A
   decoder may return [Error] or any value; it must never raise. *)
let protocol_mutation_fuzz () =
  let prng = Horus_util.Prng.create 15 in
  let mutate b =
    let n = Bytes.length b in
    match Horus_util.Prng.int prng 3 with
    | 0 -> Bytes.sub b 0 (Horus_util.Prng.int prng (n + 1))
    | 1 ->
      let b = Bytes.copy b in
      let i = Horus_util.Prng.int prng n in
      let bit = 1 lsl Horus_util.Prng.int prng 8 in
      Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor bit);
      b
    | _ -> Bytes.cat b (Horus_util.Prng.bytes prng (1 + Horus_util.Prng.int prng 16))
  in
  let encodings =
    List.map (P.encode_request ~req_id:9) sample_requests
    @ List.map (P.encode_reply ~req_id:9) sample_replies
  in
  let decoded = ref 0 in
  List.iter
    (fun enc ->
       for _ = 1 to 300 do
         let b = mutate enc in
         (match P.decode_request b with
          | Ok _ -> incr decoded
          | Error _ -> ()
          | exception e ->
            Alcotest.failf "decode_request raised %s" (Printexc.to_string e));
         match P.decode_reply b with
         | Ok _ -> incr decoded
         | Error _ -> ()
         | exception e -> Alcotest.failf "decode_reply raised %s" (Printexc.to_string e)
       done)
    encodings;
  (* Extensions and payload bit flips still decode: the fuzz reached
     past the envelope checks. *)
  Alcotest.(check bool) "some mutants decode" true (!decoded > 0)

let () =
  Alcotest.run "dir"
    [ ( "protocol",
        [ Alcotest.test_case "every constructor round-trips" `Quick protocol_round_trip;
          Alcotest.test_case "mutated bytes never raise" `Quick protocol_mutation_fuzz ] );
      ( "service",
        [ Alcotest.test_case "lease expiry evicts" `Quick lease_expiry_evicts;
          Alcotest.test_case "re-registration after expiry" `Quick re_registration;
          Alcotest.test_case "unknown rank/group are clean errors" `Quick
            unknown_rank_error;
          Alcotest.test_case "deterministic notification ordering" `Quick
            notification_ordering;
          Alcotest.test_case "renew at the sweep boundary keeps the binding"
            `Quick renew_at_sweep_boundary;
          QCheck_alcotest.to_alcotest renewal_interleaving_prop ] );
      ( "replication",
        [ Alcotest.test_case "deltas mirror state to backups" `Quick
            replication_mirrors_state;
          Alcotest.test_case "late backup catches up from a snapshot" `Quick
            late_backup_catches_up;
          Alcotest.test_case "promotion and transparent client failover" `Quick
            promotion_and_failover;
          Alcotest.test_case "backup redirects to the primary" `Quick
            backup_redirects_to_primary ] ) ]
