(* Tests for the discrete-event engine and the simulated network. *)

open Horus_sim

(* --- Engine --- *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:0.3 (fun () -> log := 3 :: !log));
  ignore (Engine.schedule e ~delay:0.1 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:0.2 (fun () -> log := 2 :: !log));
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:0.1 (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "ties in scheduling order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_time_advances () =
  let e = Engine.create () in
  let seen = ref 0.0 in
  ignore (Engine.schedule e ~delay:1.5 (fun () -> seen := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "now at event" 1.5 !seen;
  Alcotest.(check (float 1e-9)) "now after run" 1.5 (Engine.now e)

let test_engine_nested_scheduling () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~delay:0.1 (fun () ->
         log := "a" :: !log;
         ignore (Engine.schedule e ~delay:0.1 (fun () -> log := "b" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "a"; "b" ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:0.1 (fun () -> fired := true) in
  Engine.cancel h;
  Engine.run e;
  Alcotest.(check bool) "cancelled not fired" false !fired

let test_engine_run_until () =
  let e = Engine.create () in
  let log = ref [] in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
  ignore (Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log));
  Engine.run_until e ~time:1.5;
  Alcotest.(check (list int)) "only first" [ 1 ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock at barrier" 1.5 (Engine.now e);
  Engine.run e;
  Alcotest.(check (list int)) "rest after" [ 1; 2 ] (List.rev !log)

let test_engine_budget () =
  let e = Engine.create () in
  let rec forever () = ignore (Engine.schedule e ~delay:0.001 forever) in
  forever ();
  Alcotest.check_raises "budget" (Engine.Budget_exhausted 100) (fun () ->
      Engine.run ~max_events:100 e)

let test_engine_past_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:1.0 (fun () -> ()));
  Engine.run e;
  Alcotest.(check bool) "past raises" true
    (try
       ignore (Engine.schedule_at e ~time:0.5 (fun () -> ()));
       false
     with Invalid_argument _ -> true)

(* --- Net --- *)

let mk ?config ?seed () =
  let e = Engine.create () in
  let net = Net.create ?config ?seed e in
  (e, net)

let attach_collect net node =
  let got = ref [] in
  Net.attach net ~node (fun ~src payload -> got := (src, Bytes.to_string payload) :: !got);
  got

let test_net_delivers () =
  let e, net = mk () in
  let got = attach_collect net 2 in
  Net.send net ~src:1 ~dst:2 (Bytes.of_string "hi");
  Engine.run e;
  Alcotest.(check (list (pair int string))) "delivered" [ (1, "hi") ] !got

let test_net_latency () =
  let e, net = mk ~config:{ Net.default_config with latency = 0.25 } () in
  let at = ref 0.0 in
  Net.attach net ~node:2 (fun ~src:_ _ -> at := Engine.now e);
  Net.send net ~src:1 ~dst:2 (Bytes.of_string "x");
  Engine.run e;
  Alcotest.(check (float 1e-9)) "arrives at latency" 0.25 !at

let test_net_fifo_without_jitter () =
  let e, net = mk () in
  let got = attach_collect net 2 in
  for i = 0 to 9 do
    Net.send net ~src:1 ~dst:2 (Bytes.of_string (string_of_int i))
  done;
  Engine.run e;
  Alcotest.(check (list string)) "in order"
    (List.init 10 string_of_int)
    (List.rev_map snd !got)

let test_net_drop_all () =
  let e, net = mk ~config:{ Net.default_config with drop_prob = 1.0 } () in
  let got = attach_collect net 2 in
  Net.send net ~src:1 ~dst:2 (Bytes.of_string "x");
  Engine.run e;
  Alcotest.(check int) "nothing delivered" 0 (List.length !got);
  Alcotest.(check int) "counted dropped" 1 (Net.stats net).Net.dropped

let test_net_drop_statistics () =
  let e, net = mk ~config:{ Net.default_config with drop_prob = 0.5 } ~seed:123 () in
  let got = attach_collect net 2 in
  for _ = 1 to 1000 do
    Net.send net ~src:1 ~dst:2 (Bytes.of_string "x")
  done;
  Engine.run e;
  let n = List.length !got in
  Alcotest.(check bool) "roughly half" true (n > 400 && n < 600)

let test_net_crash () =
  let e, net = mk () in
  let got = attach_collect net 2 in
  Net.crash net ~node:2;
  Net.send net ~src:1 ~dst:2 (Bytes.of_string "x");
  Engine.run e;
  Alcotest.(check int) "crashed node gets nothing" 0 (List.length !got);
  Net.recover net ~node:2;
  Net.send net ~src:1 ~dst:2 (Bytes.of_string "y");
  Engine.run e;
  Alcotest.(check int) "recovered node receives" 1 (List.length !got)

let test_net_crashed_source () =
  let e, net = mk () in
  let got = attach_collect net 2 in
  Net.crash net ~node:1;
  Net.send net ~src:1 ~dst:2 (Bytes.of_string "x");
  Engine.run e;
  Alcotest.(check int) "crashed source sends nothing" 0 (List.length !got)

let test_net_partition () =
  let e, net = mk () in
  let got2 = attach_collect net 2 in
  let got3 = attach_collect net 3 in
  Net.partition net [ [ 1; 2 ]; [ 3 ] ];
  Net.send net ~src:1 ~dst:2 (Bytes.of_string "same side");
  Net.send net ~src:1 ~dst:3 (Bytes.of_string "other side");
  Engine.run e;
  Alcotest.(check int) "same partition delivered" 1 (List.length !got2);
  Alcotest.(check int) "cross partition dropped" 0 (List.length !got3);
  Net.heal net;
  Net.send net ~src:1 ~dst:3 (Bytes.of_string "after heal");
  Engine.run e;
  Alcotest.(check int) "healed" 1 (List.length !got3)

let test_net_partition_cut_in_flight () =
  (* A packet in flight when the partition forms is dropped at delivery
     time. *)
  let e, net = mk ~config:{ Net.default_config with latency = 1.0 } () in
  let got = attach_collect net 2 in
  Net.send net ~src:1 ~dst:2 (Bytes.of_string "x");
  ignore (Engine.schedule e ~delay:0.5 (fun () -> Net.partition net [ [ 1 ]; [ 2 ] ]));
  Engine.run e;
  Alcotest.(check int) "in-flight packet cut" 0 (List.length !got)

let test_net_garble () =
  let e, net = mk ~config:{ Net.default_config with garble_prob = 1.0 } () in
  let got = attach_collect net 2 in
  Net.send net ~src:1 ~dst:2 (Bytes.of_string "abcdef");
  Engine.run e;
  match !got with
  | [ (_, s) ] ->
    Alcotest.(check int) "same length" 6 (String.length s);
    Alcotest.(check bool) "content differs" true (s <> "abcdef")
  | _ -> Alcotest.fail "expected one delivery"

let test_net_duplicate () =
  let e, net = mk ~config:{ Net.default_config with duplicate_prob = 1.0 } () in
  let got = attach_collect net 2 in
  Net.send net ~src:1 ~dst:2 (Bytes.of_string "x");
  Engine.run e;
  Alcotest.(check int) "delivered twice" 2 (List.length !got)

let test_net_mtu () =
  let e, net = mk ~config:{ Net.default_config with mtu = 4 } () in
  let got = attach_collect net 2 in
  Net.send net ~src:1 ~dst:2 (Bytes.of_string "12345");
  Net.send net ~src:1 ~dst:2 (Bytes.of_string "1234");
  Engine.run e;
  Alcotest.(check (list string)) "only small one" [ "1234" ] (List.map snd !got);
  Alcotest.(check int) "oversize counted" 1 (Net.stats net).Net.oversize

let test_net_jitter_reorders () =
  let e, net = mk ~config:{ Net.default_config with latency = 0.001; jitter = 0.01 } ~seed:5 () in
  let got = attach_collect net 2 in
  for i = 0 to 49 do
    Net.send net ~src:1 ~dst:2 (Bytes.of_string (string_of_int i))
  done;
  Engine.run e;
  let order = List.rev_map snd !got in
  Alcotest.(check int) "all delivered" 50 (List.length order);
  Alcotest.(check bool) "reordered" true (order <> List.init 50 string_of_int)

let test_net_detach () =
  let e, net = mk () in
  let got = attach_collect net 2 in
  Net.detach net ~node:2;
  Net.send net ~src:1 ~dst:2 (Bytes.of_string "x");
  Engine.run e;
  Alcotest.(check int) "detached gets nothing" 0 (List.length !got)

let () =
  Alcotest.run "sim"
    [ ( "engine",
        [ Alcotest.test_case "time order" `Quick test_engine_order;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "time advances" `Quick test_engine_time_advances;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_scheduling;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run_until" `Quick test_engine_run_until;
          Alcotest.test_case "budget guard" `Quick test_engine_budget;
          Alcotest.test_case "past rejected" `Quick test_engine_past_rejected ] );
      ( "net",
        [ Alcotest.test_case "delivers" `Quick test_net_delivers;
          Alcotest.test_case "latency" `Quick test_net_latency;
          Alcotest.test_case "FIFO without jitter" `Quick test_net_fifo_without_jitter;
          Alcotest.test_case "drop all" `Quick test_net_drop_all;
          Alcotest.test_case "drop statistics" `Quick test_net_drop_statistics;
          Alcotest.test_case "crash" `Quick test_net_crash;
          Alcotest.test_case "crashed source" `Quick test_net_crashed_source;
          Alcotest.test_case "partition" `Quick test_net_partition;
          Alcotest.test_case "partition cuts in-flight" `Quick test_net_partition_cut_in_flight;
          Alcotest.test_case "garble" `Quick test_net_garble;
          Alcotest.test_case "duplicate" `Quick test_net_duplicate;
          Alcotest.test_case "mtu" `Quick test_net_mtu;
          Alcotest.test_case "jitter reorders" `Quick test_net_jitter_reorders;
          Alcotest.test_case "detach" `Quick test_net_detach ] ) ]
