(* The sharded fabric: placement (gid hash + pins), mailbox post/drain
   accounting, the run harness (shard order, exception propagation),
   the kernel-bypass backend wrapper, and the determinism contract of
   the campaign harness — a one-cell soak fingerprints identically to
   the plain single-threaded run, multi-cell folds are pinned, and the
   double-run gate compares every cell's key. Also the driver-scaling
   regression: a driver hosting more backends than FD_SETSIZE still
   delivers. *)

module T = Horus_transport
module Shard = Horus_transport.Shard
module Campaign = Horus_check.Campaign
module Soak = Horus_check.Soak
module Churn = Horus_check.Churn
module Json = Horus_obs.Json

(* --- placement ----------------------------------------------------- *)

let placement () =
  let f = Shard.create 4 in
  Alcotest.(check int) "shards" 4 (Shard.shards f);
  Alcotest.(check int) "gid hash" 2 (Shard.shard_of f 6);
  Alcotest.(check int) "gid hash wraps" 3 (Shard.shard_of f 7);
  Shard.pin f ~gid:6 ~shard:0;
  Alcotest.(check int) "pin overrides the hash" 0 (Shard.shard_of f 6);
  Alcotest.(check int) "others unaffected" 1 (Shard.shard_of f 5);
  Alcotest.(check int) "pin count" 1 (Shard.pinned f);
  Alcotest.check_raises "pin to a missing shard rejected"
    (Invalid_argument "Shard.pin: no such shard") (fun () ->
        Shard.pin f ~gid:1 ~shard:4);
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Shard.create: shards must be >= 1") (fun () ->
        ignore (Shard.create 0))

(* --- mailboxes ----------------------------------------------------- *)

let msg s = { Shard.m_src = s; m_frame = Bytes.of_string s }

let post_and_drain () =
  let f = Shard.create 3 in
  Alcotest.(check bool) "post accepted" true (Shard.post f ~from:0 ~to_:2 (msg "a"));
  Alcotest.(check bool) "second post" true (Shard.post f ~from:1 ~to_:2 (msg "b"));
  Alcotest.(check bool) "unrelated inbox" true (Shard.post f ~from:2 ~to_:0 (msg "c"));
  let got = ref [] in
  let n = Shard.drain f ~me:2 (fun m -> got := m.Shard.m_src :: !got) in
  Alcotest.(check int) "drained both inboxes" 2 n;
  Alcotest.(check (list string)) "in source-shard order" [ "a"; "b" ] (List.rev !got);
  Alcotest.(check int) "other shard's mail untouched" 1
    (Shard.drain f ~me:0 (fun _ -> ()));
  Alcotest.(check int) "empty now" 0 (Shard.drain f ~me:2 (fun _ -> ()));
  Alcotest.check_raises "post out of range"
    (Invalid_argument "Shard.post: no such shard") (fun () ->
        ignore (Shard.post f ~from:0 ~to_:3 (msg "x")))

let overflow_is_counted () =
  let f = Shard.create ~mailbox:2 2 in
  let accepted = ref 0 in
  for i = 0 to 9 do
    if Shard.post f ~from:0 ~to_:1 (msg (string_of_int i)) then incr accepted
  done;
  Alcotest.(check int) "capacity accepted" 2 !accepted;
  let m = Horus_obs.Metrics.create () in
  Shard.export_metrics f m;
  let count name = Horus_obs.Metrics.count (Horus_obs.Metrics.counter m name) in
  Alcotest.(check int) "posted" 2 (count "shard.posted");
  Alcotest.(check int) "overflow" 8 (count "shard.overflow")

(* --- the run harness ----------------------------------------------- *)

let run_in_shard_order () =
  let f = Shard.create 4 in
  let results =
    Shard.run f (fun ctx ->
        Alcotest.(check int) "ctx carries the width" 4 ctx.Shard.sx_shards;
        ctx.Shard.sx_id * 10)
  in
  Alcotest.(check (array int)) "results in shard order" [| 0; 10; 20; 30 |] results

let run_propagates_failure () =
  let f = Shard.create 3 in
  Alcotest.check_raises "a shard's exception surfaces" (Failure "shard 1 died")
    (fun () ->
       ignore
         (Shard.run f (fun ctx ->
              if ctx.Shard.sx_id = 1 then failwith "shard 1 died")))

(* --- the bypass wrapper -------------------------------------------- *)

(* Two loopback backends standing in for two shards' sockets: a send
   to a co-resident address is diverted into the destination shard's
   mailbox (and counted in the backend stats like wire traffic); a
   send nobody claims still goes down to the real backend; and when
   the mailbox is full the frame falls back to the wire instead of
   vanishing. *)
let bypass_diverts_and_falls_back () =
  let engine = Horus_sim.Engine.create () in
  let hub = T.Loopback.hub engine in
  let b0 = T.Loopback.create ~addr:"mem:0" hub in
  let b1 = T.Loopback.create ~addr:"mem:1" hub in
  let b2 = T.Loopback.create ~addr:"mem:2" hub in
  let f = Shard.create ~mailbox:2 2 in
  let owner = function "mem:0" -> Some 0 | "mem:1" -> Some 1 | _ -> None in
  let w0 = Shard.bypass f ~me:0 ~lookup:owner b0 in
  let w1 = Shard.bypass f ~me:1 ~lookup:owner b1 in
  let wire = ref [] and mail = ref [] in
  w1.T.Backend.set_rx (fun ~src:_ frame -> mail := Bytes.to_string frame :: !mail);
  b2.T.Backend.set_rx (fun ~src:_ frame -> wire := Bytes.to_string frame :: !wire);
  (* Diverted: stays out of the loopback hub entirely. *)
  w0.T.Backend.send ~dest:"mem:1" (Bytes.of_string "direct");
  Horus_sim.Engine.run engine;
  Alcotest.(check int) "nothing reached b1 over the hub" 0
    b1.T.Backend.stats.T.Backend.delivered;
  Alcotest.(check int) "bypass counted as sent" 1 b0.T.Backend.stats.T.Backend.sent;
  Alcotest.(check int) "arrives on the wrapped poll" 1 (w1.T.Backend.poll ());
  Alcotest.(check (list string)) "payload intact" [ "direct" ] !mail;
  Alcotest.(check int) "and counted as delivered" 1 b1.T.Backend.stats.T.Backend.delivered;
  (* A destination nobody in-process claims uses the wire as usual. *)
  w0.T.Backend.send ~dest:"mem:2" (Bytes.of_string "routed");
  Horus_sim.Engine.run engine;
  Alcotest.(check (list string)) "wire path intact" [ "routed" ] !wire;
  (* Shed posts fall back to the wire: fill the 0->1 ring, then send
     one more — it must arrive via the hub, not disappear. *)
  mail := [];
  let capacity = ref 0 in
  while Shard.post f ~from:0 ~to_:1 (msg "fill") do incr capacity done;
  Alcotest.(check int) "ring filled" 2 !capacity;
  w0.T.Backend.send ~dest:"mem:1" (Bytes.of_string "overflowed");
  Horus_sim.Engine.run engine;
  ignore (w1.T.Backend.poll ());
  Alcotest.(check bool) "fallback frame arrived" true (List.mem "overflowed" !mail)

(* --- determinism: sharded cells ------------------------------------ *)

let small_soak =
  { Soak.default_config with
    Soak.c_name = "shard-test";
    c_casts = 60;
    c_check_every = 0.5 }

let soak_campaign ~shards = Campaign.run Soak.campaign ~shards (Soak.cell ~shards small_soak)

(* shards=1 is the plain run, bit for bit: same report fingerprints,
   the combined fingerprint IS the metrics fingerprint, and the report
   is the cell's own. *)
let sharded_one_equals_plain () =
  Horus_layers.Init.register_all ();
  let plain = Soak.run small_soak in
  let s = soak_campaign ~shards:1 in
  Alcotest.(check int) "one cell" 1 (Array.length s.Campaign.cells);
  let cell = s.Campaign.cells.(0) in
  Alcotest.(check bool) "cell passed" true (Soak.ok cell);
  Alcotest.(check int64) "metrics fingerprint identical"
    plain.Soak.rp_metrics_fingerprint cell.Soak.rp_metrics_fingerprint;
  Alcotest.(check int64) "outcome fingerprint identical"
    plain.Soak.rp_outcome_fingerprint cell.Soak.rp_outcome_fingerprint;
  Alcotest.(check int64) "combined = plain"
    plain.Soak.rp_metrics_fingerprint s.Campaign.combined;
  Alcotest.(check string) "report is the cell's own"
    (Json.to_string ~indent:false (Soak.to_json plain))
    (Json.to_string ~indent:false (Campaign.to_json Soak.campaign s))

(* Two shards on two real domains, run twice: the combined fingerprint
   is a pure function of (config, shards) no matter how the domains
   interleaved. *)
let sharded_double_run_agrees () =
  Horus_layers.Init.register_all ();
  let a = soak_campaign ~shards:2 in
  let b = soak_campaign ~shards:2 in
  Alcotest.(check bool) "first passed" true (Campaign.ok Soak.campaign a);
  Alcotest.(check int64) "fingerprints agree" a.Campaign.combined b.Campaign.combined;
  Alcotest.(check (list string)) "every cell's key agrees"
    (Array.to_list (Array.map Soak.campaign.Campaign.key a.Campaign.cells))
    (Array.to_list (Array.map Soak.campaign.Campaign.key b.Campaign.cells));
  match Campaign.to_json Soak.campaign a with
  | Json.Obj fields ->
    Alcotest.(check (list string)) "multi-cell report keys"
      [ "shards"; "ok"; "fingerprint"; "wall_seconds"; "cells" ]
      (List.map fst fields)
  | _ -> Alcotest.fail "multi-cell report is not an object"

(* The two-cell folds, pinned: each cell's key, joined by '|' in shard
   order, hashed. A change to the fold, the keys, the fingerprint
   construction or the metrics a soak cell records moves them. *)
let soak_fold_pinned () =
  Horus_layers.Init.register_all ();
  let s = soak_campaign ~shards:2 in
  Alcotest.(check string) "soak 2-cell fingerprint" "651ea94338e45f93"
    (Printf.sprintf "%016Lx" s.Campaign.combined)

(* test_hier.ml's toy churn shape. *)
let churn_config =
  { Churn.default_config with
    Churn.h_name = "churn-test";
    h_endpoints = 24;
    h_subgroups = 4;
    h_waves = 2;
    h_casts_per_wave = 4 }

let churn_fold_pinned () =
  let s = Campaign.run Churn.campaign ~shards:2 (Churn.cell ~shards:2 churn_config) in
  Alcotest.(check bool) "both cells passed" true (Campaign.ok Churn.campaign s);
  Alcotest.(check string) "churn 2-cell fingerprint" "fd20d0decccf494e"
    (Printf.sprintf "%016Lx" s.Campaign.combined)

(* --- the double-run gate -------------------------------------------- *)

(* A cell whose own fingerprint never changes but whose key differs
   between runs: the one-cell combined fingerprint agrees, so only a
   key comparison catches it. *)
let fake =
  { Campaign.ok = (fun (_, ok) -> ok);
    fingerprint = (fun _ -> 42L);
    key = fst;
    to_json = (fun (k, ok) -> Json.Obj [ ("key", Json.String k); ("ok", Json.Bool ok) ]) }

let gate ?report cell =
  Campaign.gate fake ?report ~double_run:true ~summary:ignore ~passed:"passed" ~shards:1
    cell

let gate_compares_keys () =
  let runs = ref 0 in
  let drifting _ = incr runs; (Printf.sprintf "run%d" !runs, true) in
  Alcotest.(check int) "drifting key fails the gate" 1 (gate drifting);
  Alcotest.(check int) "ran twice" 2 !runs;
  Alcotest.(check int) "steady key passes" 0 (gate (fun _ -> ("same", true)));
  let report = Filename.temp_file "campaign" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove report)
    (fun () ->
       Alcotest.(check int) "failing cell fails the gate" 1
         (gate ~report (fun _ -> ("same", false)));
       let written = In_channel.with_open_bin report In_channel.input_all in
       Alcotest.(check string) "one-cell report is the cell's own"
         "{\n  \"key\": \"same\",\n  \"ok\": false\n}\n" written)

(* --- driver scaling: more backends than FD_SETSIZE ------------------ *)

(* 1200 loopback backends under one wall-clock driver: the pump and
   idle wait must not assume select's 1024-fd ceiling (loopback has no
   fds; the socket case rides poll(2) — Sysops.poll_in — for the same
   reason). A frame between two of them still arrives promptly. *)
let driver_hosts_1200_backends () =
  let engine = Horus_sim.Engine.create () in
  let hub = T.Loopback.hub engine in
  let backends =
    List.init 1200 (fun i -> T.Loopback.create ~addr:(Printf.sprintf "mem:%d" i) hub)
  in
  let driver = T.Driver.create ~max_tick:0.005 engine backends in
  let got = ref None in
  let b0 = List.nth backends 0 and b7 = List.nth backends 777 in
  b7.T.Backend.set_rx (fun ~src frame -> got := Some (src, Bytes.to_string frame));
  b0.T.Backend.send ~dest:b7.T.Backend.local_addr (Bytes.of_string "wide");
  Alcotest.(check bool) "delivered" true
    (T.Driver.run_until ~timeout:5.0 driver (fun () -> !got <> None));
  match !got with
  | Some (src, payload) ->
    Alcotest.(check string) "src" "mem:0" src;
    Alcotest.(check string) "payload" "wide" payload
  | None -> assert false

let () =
  Alcotest.run "shard"
    [ ( "placement",
        [ Alcotest.test_case "gid hash + pins" `Quick placement ] );
      ( "mailboxes",
        [ Alcotest.test_case "post and drain" `Quick post_and_drain;
          Alcotest.test_case "overflow counted" `Quick overflow_is_counted ] );
      ( "run",
        [ Alcotest.test_case "results in shard order" `Quick run_in_shard_order;
          Alcotest.test_case "exceptions propagate" `Quick run_propagates_failure ] );
      ( "bypass",
        [ Alcotest.test_case "divert, route, fall back" `Quick
            bypass_diverts_and_falls_back ] );
      ( "determinism",
        [ Alcotest.test_case "shards=1 equals the plain run" `Slow sharded_one_equals_plain;
          Alcotest.test_case "sharded double run agrees" `Slow sharded_double_run_agrees;
          Alcotest.test_case "soak 2-cell fold pinned" `Slow soak_fold_pinned;
          Alcotest.test_case "churn 2-cell fold pinned" `Slow churn_fold_pinned;
          Alcotest.test_case "double-run gate compares keys" `Quick gate_compares_keys ] );
      ( "driver",
        [ Alcotest.test_case "1200 backends on one driver" `Quick driver_hosts_1200_backends ] ) ]
