(* Integration tests for the substrate layers: NAK (reliable FIFO),
   FRAG/NFRAG (fragmentation), CHKSUM/SIGN/ENCRYPT/COMPRESS (filters),
   FC (flow control), NNAK (prioritized effort).

   All tests run membershipless stacks: views are installed explicitly,
   so only the layer under test is in play. *)

open Horus

let lossy drop = { Horus_sim.Net.default_config with drop_prob = drop }

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec loop i = i + n <= m && (String.sub s i n = sub || loop (i + 1)) in
  n = 0 || loop 0

(* Build an n-member group over [spec], installing a symmetric view at
   every member. *)
let mk_group ?(n = 2) ?(spec = "NAK:COM") ?(config = Horus_sim.Net.default_config) ?(seed = 1) () =
  let world = World.create ~config ~seed () in
  let g = World.fresh_group_addr world in
  let members = List.init n (fun _ -> Group.join (Endpoint.create world ~spec) g) in
  let addrs = List.sort Addr.compare_endpoint (List.map Group.addr members) in
  let v = View.create ~group:g ~ltime:0 ~members:addrs in
  List.iter (fun m -> Group.install_view m v) members;
  (world, members)

let payloads n prefix = List.init n (fun i -> Printf.sprintf "%s-%03d" prefix i)

(* --- NAK --- *)

let test_nak_fifo_no_loss () =
  let world, members = mk_group () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let msgs = payloads 20 "m" in
  List.iter (Group.cast a) msgs;
  World.run_for world ~duration:1.0;
  Alcotest.(check (list string)) "b in order" msgs (Group.casts b);
  Alcotest.(check (list string)) "a loopback in order" msgs (Group.casts a)

let test_nak_recovers_loss () =
  (* 30% loss; NAK must still deliver everything, in order. *)
  let world, members = mk_group ~config:(lossy 0.3) ~seed:7 () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let msgs = payloads 50 "loss" in
  List.iter (Group.cast a) msgs;
  World.run_for world ~duration:10.0;
  Alcotest.(check (list string)) "all delivered in order despite loss" msgs (Group.casts b)

let test_nak_recovers_heavy_loss_multi () =
  (* Three members, everyone casting, 40% loss. *)
  let world, members = mk_group ~n:3 ~config:(lossy 0.4) ~seed:11 () in
  List.iteri
    (fun i m -> List.iter (Group.cast m) (payloads 20 (Printf.sprintf "p%d" i)))
    members;
  World.run_for world ~duration:30.0;
  List.iteri
    (fun j receiver ->
       let got = Group.casts receiver in
       (* Per-origin FIFO: the subsequence from each origin must be in
          order and complete. *)
       List.iteri
         (fun i _ ->
            let want = payloads 20 (Printf.sprintf "p%d" i) in
            let from_i =
              List.filter (fun p -> String.length p > 1 && p.[1] = Char.chr (Char.code '0' + i)) got
            in
            Alcotest.(check (list string))
              (Printf.sprintf "receiver %d sees origin %d complete+ordered" j i)
              want from_i)
         members)
    members

let test_nak_reordering_repaired () =
  (* Heavy jitter reorders packets; NAK restores FIFO. *)
  let config = { Horus_sim.Net.default_config with latency = 0.001; jitter = 0.02 } in
  let world, members = mk_group ~config ~seed:3 () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let msgs = payloads 30 "jit" in
  List.iter (Group.cast a) msgs;
  World.run_for world ~duration:5.0;
  Alcotest.(check (list string)) "order restored" msgs (Group.casts b)

let test_nak_duplicates_suppressed () =
  let config = { Horus_sim.Net.default_config with duplicate_prob = 0.5 } in
  let world, members = mk_group ~config ~seed:5 () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let msgs = payloads 25 "dup" in
  List.iter (Group.cast a) msgs;
  World.run_for world ~duration:2.0;
  Alcotest.(check (list string)) "exactly once, in order" msgs (Group.casts b)

let test_nak_sends_reliable () =
  let world, members = mk_group ~config:(lossy 0.3) ~seed:13 () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let msgs = payloads 30 "s" in
  List.iter (fun p -> Group.send a [ Group.addr b ] p) msgs;
  World.run_for world ~duration:10.0;
  let got =
    List.filter_map
      (fun d -> if d.Group.kind = `Send then Some d.Group.payload else None)
      (Group.deliveries b)
  in
  Alcotest.(check (list string)) "sends reliable and ordered" msgs got

let test_nak_problem_on_silence () =
  let world, members = mk_group () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  World.run_for world ~duration:0.5;
  Endpoint.crash (Group.endpoint b);
  World.run_for world ~duration:2.0;
  Alcotest.(check bool) "a suspects b" true
    (List.exists (Addr.equal_endpoint (Group.addr b)) (Group.problems a))

let test_nak_no_problem_when_alive () =
  let world, members = mk_group () in
  let a, _b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  World.run_for world ~duration:3.0;
  Alcotest.(check (list string)) "no suspicion of live members" []
    (List.map Addr.endpoint_to_string (Group.problems a))

let test_nak_placeholder_lost_message () =
  (* The paper's placeholder path: with a tiny retransmission buffer, a
     receiver that missed early casts gets placeholders for whatever
     the sender has forgotten — surfacing as LOST_MESSAGE — and the
     still-buffered tail is recovered normally, in order. *)
  let world, members =
    mk_group ~spec:"NAK(buffer_limit=3,status_period=0.02):COM" ()
  in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let node gr = Addr.endpoint_id (Group.addr gr) in
  (* Cut the wire while a casts 10 messages: b misses all of them and
     a's buffer only retains the last 3. *)
  Horus_sim.Net.partition (World.net world) [ [ node a ]; [ node b ] ];
  List.iter (Group.cast a) (payloads 10 "ph");
  World.run_for world ~duration:0.01;
  Horus_sim.Net.heal (World.net world);
  World.run_for world ~duration:3.0;
  (* The tail that survived in the buffer arrives intact and ordered... *)
  Alcotest.(check (list string)) "buffered tail recovered"
    [ "ph-007"; "ph-008"; "ph-009" ]
    (Group.casts b);
  (* ...and every forgotten message was acknowledged as lost. *)
  Alcotest.(check int) "seven placeholders -> LOST_MESSAGE" 7 (Group.lost_messages b)

let test_nak_placeholders_after_wrap () =
  (* The retransmission buffer is a ring indexed by sequence number.
     Let it wrap several times — 20 casts delivered and acknowledged,
     each logged and then freed — before the wire is cut for 10 more:
     the 3 still buffered (seqs 27-29, in slots the ring has reused)
     must be retransmitted intact and in order, and the 7 it had to
     forget (seqs 20-26) answered with placeholders. *)
  let world, members =
    mk_group ~spec:"NAK(buffer_limit=3,status_period=0.02):COM" ()
  in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let node gr = Addr.endpoint_id (Group.addr gr) in
  let early = payloads 20 "early" in
  List.iter
    (fun p ->
       Group.cast a p;
       World.run_for world ~duration:0.01)
    early;
  World.run_for world ~duration:0.5;
  Horus_sim.Net.partition (World.net world) [ [ node a ]; [ node b ] ];
  List.iter (Group.cast a) (payloads 10 "late");
  World.run_for world ~duration:0.01;
  Horus_sim.Net.heal (World.net world);
  World.run_for world ~duration:3.0;
  Alcotest.(check (list string)) "early casts, then the buffered tail"
    (early @ [ "late-007"; "late-008"; "late-009" ])
    (Group.casts b);
  Alcotest.(check int) "seven placeholders after the wrap" 7 (Group.lost_messages b)

(* A peer's NAK names the range it wants; the origin serves only the
   seqs it has assigned. A current-epoch request reaching 10,000 seqs
   past the origin's high-water mark gets the few real copies, not a
   placeholder per named seq, and the refused tail is counted. *)
let test_nak_request_clamped () =
  let world, members = mk_group ~n:3 () in
  let a, b = match members with a :: b :: _ -> (a, b) | _ -> assert false in
  List.iter (Group.cast a) (payloads 5 "n");
  World.run_for world ~duration:0.5;
  let epoch, next_seq =
    match Group.focus a "NAK" with
    | Some l ->
      Scanf.sscanf (List.hd (l.Horus_hcpi.Layer.dump ())) "epoch=%d next_seq=%d" (fun e n -> (e, n))
    | None -> Alcotest.fail "no NAK layer"
  in
  (* b's request, as the wire carries it: group id, COM's envelope for
     a send, NAK's kind, epoch, from and to. *)
  let request ~from_seq ~to_seq =
    let m = Msg.empty () in
    Msg.push_u32 m to_seq;
    Msg.push_u32 m from_seq;
    Msg.push_u32 m epoch;
    Msg.push_u8 m 2 (* NAK's k_nak_cast *);
    Msg.push_u8 m 1 (* COM's Send *);
    Msg.push_u16 m (Msg.length m);
    Msg.push_u16 m Horus_layers.Com.magic;
    Msg.push_u32 m (Addr.group_id (Group.group a));
    Msg.to_bytes m
  in
  let net = World.net world in
  let sent () = (Horus_sim.Net.stats net).Horus_sim.Net.sent in
  let inject frame =
    let before = sent () in
    Horus_sim.Net.send net ~src:(Addr.endpoint_id (Group.addr b))
      ~dst:(Addr.endpoint_id (Group.addr a)) frame;
    World.run_for world ~duration:0.1;
    sent () - before
  in
  let rejected () =
    Metrics.count (Metrics.counter (World.metrics world) "layers.NAK.rejected")
  in
  let grew = inject (request ~from_seq:0 ~to_seq:(next_seq + 10_000)) in
  Alcotest.(check bool)
    (Printf.sprintf "%d datagrams for %d assigned seqs" grew next_seq)
    true (grew < next_seq + 32);
  Alcotest.(check int) "a range inside the mark is not refused" 0 (rejected ());
  let grew = inject (request ~from_seq:(next_seq + 1) ~to_seq:(next_seq + 10_000)) in
  Alcotest.(check bool) (Printf.sprintf "%d datagrams for none assigned" grew) true (grew < 32);
  Alcotest.(check int) "a range past the mark is refused" 1 (rejected ())

(* A data cast whose seq claims to be far past the next one expected
   (here one byte of it changed on the wire) is dropped and counted, not
   stashed: a stashed one would NAK the whole gap and keep the origin's
   lane off the direct path for the rest of the view. *)
let test_nak_far_ahead_dropped () =
  let world, members = mk_group ~n:3 () in
  let a, b = match members with a :: b :: _ -> (a, b) | _ -> assert false in
  let first = payloads 5 "h" and next = payloads 5 "k" in
  List.iter (Group.cast a) first;
  World.run_for world ~duration:0.5;
  let epoch, next_seq =
    match Group.focus a "NAK" with
    | Some l ->
      Scanf.sscanf (List.hd (l.Horus_hcpi.Layer.dump ())) "epoch=%d next_seq=%d" (fun e n -> (e, n))
    | None -> Alcotest.fail "no NAK layer"
  in
  (* a's next data cast as the wire carries it, but for its seq: group
     id, COM's envelope for a cast, NAK's kind, epoch and seq. *)
  let forged = Msg.create "forged" in
  Msg.push_u32 forged (next_seq + (1 lsl 24));
  Msg.push_u32 forged epoch;
  Msg.push_u8 forged 0 (* NAK's k_data_cast *);
  Msg.push_u8 forged 0 (* COM's Cast *);
  Msg.push_u16 forged (Msg.length forged);
  Msg.push_u16 forged Horus_layers.Com.magic;
  Msg.push_u32 forged (Addr.group_id (Group.group a));
  let net = World.net world in
  let sent () = (Horus_sim.Net.stats net).Horus_sim.Net.sent in
  let before = sent () in
  Horus_sim.Net.send net ~src:(Addr.endpoint_id (Group.addr a))
    ~dst:(Addr.endpoint_id (Group.addr b)) (Msg.to_bytes forged);
  World.run_for world ~duration:0.1;
  let grew = sent () - before in
  Alcotest.(check bool) (Printf.sprintf "%d datagrams after the forged cast" grew) true
    (grew < 32);
  Alcotest.(check int) "the forged cast is counted" 1
    (Metrics.count (Metrics.counter (World.metrics world) "layers.NAK.rejected"));
  List.iter (Group.cast a) next;
  World.run_for world ~duration:0.5;
  Alcotest.(check (list string)) "honest casts delivered in order" (first @ next) (Group.casts b);
  let stashed =
    match Group.focus b "NAK" with
    | Some l ->
      Scanf.sscanf (List.nth (l.Horus_hcpi.Layer.dump ()) 1) "naks=%_d rexmit=%_d placeholders=%_d dups=%_d stashed=%d"
        Fun.id
    | None -> Alcotest.fail "no NAK layer"
  in
  Alcotest.(check int) "nothing stashed at the receiver" 0 stashed

(* The far-ahead drop never catches honest traffic, however many casts
   are in flight: a burst longer than the 2^16 window, sent in one go
   just after one of its origin's casts was lost to b, lands past b's
   gap but each cast just past the last, and is delivered in full with
   nothing refused. *)
let test_nak_long_burst_not_refused () =
  let world, members = mk_group ~n:3 () in
  let a, b, c = match members with [ a; b; c ] -> (a, b, c) | _ -> assert false in
  let node gr = Addr.endpoint_id (Group.addr gr) in
  Horus_sim.Net.partition (World.net world) [ [ node a; node c ]; [ node b ] ];
  Group.cast a "lost";
  World.run_for world ~duration:0.01;
  Horus_sim.Net.heal (World.net world);
  let burst = List.init ((1 lsl 16) + 1_000) string_of_int in
  List.iter (Group.cast a) burst;
  World.run_for world ~duration:2.0;
  Alcotest.(check int) "b has every cast" (List.length burst + 1) (List.length (Group.casts b));
  Alcotest.(check bool) "in order" true (Group.casts b = "lost" :: burst);
  Alcotest.(check int) "nothing refused" 0
    (Metrics.count (Metrics.counter (World.metrics world) "layers.NAK.rejected"))

(* --- FRAG --- *)

let test_frag_large_message () =
  let world, members = mk_group ~spec:"FRAG(frag_size=64):NAK:COM" () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let big = String.init 1000 (fun i -> Char.chr (32 + (i mod 95))) in
  Group.cast a big;
  World.run_for world ~duration:1.0;
  Alcotest.(check (list string)) "reassembled" [ big ] (Group.casts b)

let test_frag_exact_boundary () =
  let world, members = mk_group ~spec:"FRAG(frag_size=64):NAK:COM" () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let m64 = String.make 64 'x' in
  let m65 = String.make 65 'y' in
  let m128 = String.make 128 'z' in
  List.iter (Group.cast a) [ m64; m65; m128 ];
  World.run_for world ~duration:1.0;
  Alcotest.(check (list string)) "boundaries" [ m64; m65; m128 ] (Group.casts b)

let test_frag_interleaved_origins () =
  let world, members = mk_group ~n:3 ~spec:"FRAG(frag_size=32):NAK:COM" () in
  let big i = String.make 200 (Char.chr (Char.code 'a' + i)) in
  List.iteri (fun i m -> Group.cast m (big i)) members;
  World.run_for world ~duration:2.0;
  List.iter
    (fun m ->
       let got = List.sort compare (Group.casts m) in
       Alcotest.(check (list string)) "all three large messages" [ big 0; big 1; big 2 ] got)
    members

let test_frag_under_loss () =
  let world, members =
    mk_group ~spec:"FRAG(frag_size=16):NAK:COM" ~config:(lossy 0.25) ~seed:17 ()
  in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let big = String.init 300 (fun i -> Char.chr (65 + (i mod 26))) in
  Group.cast a big;
  World.run_for world ~duration:10.0;
  Alcotest.(check (list string)) "reassembled despite loss" [ big ] (Group.casts b)

let test_frag_send_path () =
  let world, members = mk_group ~spec:"FRAG(frag_size=16):NAK:COM" () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let big = String.make 100 'q' in
  Group.send a [ Group.addr b ] big;
  World.run_for world ~duration:1.0;
  let got =
    List.filter_map
      (fun d -> if d.Group.kind = `Send then Some d.Group.payload else None)
      (Group.deliveries b)
  in
  Alcotest.(check (list string)) "send reassembled" [ big ] got

(* A lone FRAG layer as a stack: casts enter at the top and leave at
   the bottom as fragments; fragments injected at the bottom come out
   at the top, reassembled per origin. *)
let frag_stack ~frag_size ~to_app ~to_below =
  Horus_layers.Init.register_all ();
  Horus_hcpi.Stack.create ~engine:(Horus_sim.Engine.create ()) ~endpoint:(Addr.endpoint 0)
    ~group:(Addr.group 0) ~prng:(Horus_util.Prng.create 1)
    ~transport:{ Horus_hcpi.Layer.xmit = (fun ~dsts:_ _ -> ()) }
    ~rendezvous:Horus_hcpi.Layer.null_rendezvous
    ~to_app ~to_below
    (Spec.resolve (Spec.parse (Printf.sprintf "FRAG(frag_size=%d)" frag_size)))

(* Every boundary length around the fragment size plus random lengths
   up to 64 KiB, from three origins whose fragments arrive interleaved
   one by one: each origin's casts come out whole and in order. *)
let test_frag_roundtrip_lengths () =
  let fs = 1024 in
  let rng = Random.State.make [| 42 |] in
  let lengths =
    [ 0; fs - 1; fs; fs + 1; 5 * fs; (5 * fs) + 1 ]
    @ List.init 6 (fun _ -> Random.State.int rng 65_537)
  in
  let origins = [ 1; 2; 3 ] in
  let payload o k len = String.init len (fun i -> Char.chr ((o * 31 + k * 7 + i) land 0xff)) in
  let cut = ref [] in
  let sender =
    frag_stack ~frag_size:fs ~to_app:ignore ~to_below:(function
      | Event.D_cast f -> cut := f :: !cut
      | _ -> ())
  in
  let fragments_of o =
    List.concat
      (List.mapi
         (fun k len ->
            cut := [];
            Horus_hcpi.Stack.down sender (Event.D_cast (Msg.create (payload o k len)));
            let fs_out = List.rev !cut in
            Alcotest.(check int)
              (Printf.sprintf "fragments of %d bytes" len)
              (max 1 ((len + fs - 1) / fs))
              (List.length fs_out);
            List.map (fun f -> (o, f)) fs_out)
         lengths)
  in
  let rec interleave queues =
    match List.filter (fun q -> q <> []) queues with
    | [] -> []
    | qs -> List.map List.hd qs @ interleave (List.map List.tl qs)
  in
  let got = Hashtbl.create 3 in
  let receiver =
    frag_stack ~frag_size:fs ~to_below:ignore ~to_app:(function
      | Event.U_cast (o, m, _) ->
        Hashtbl.replace got o (Msg.to_string m :: Option.value (Hashtbl.find_opt got o) ~default:[])
      | _ -> ())
  in
  List.iter
    (fun (o, f) ->
       Horus_hcpi.Stack.inject_up receiver
         (Event.U_cast (o, f, [ (Horus_layers.Com.src_meta, o) ])))
    (interleave (List.map fragments_of origins));
  List.iter
    (fun o ->
       Alcotest.(check (list string))
         (Printf.sprintf "origin %d reassembled in order" o)
         (List.mapi (payload o) lengths)
         (List.rev (Option.value (Hashtbl.find_opt got o) ~default:[])))
    origins

(* Fragmentation copies each byte once: cutting a 64 KiB cast into 64
   fragments allocates well under three times the cast's own size. *)
let test_frag_alloc_linear () =
  let size = 65_536 in
  let count = ref 0 in
  let st =
    frag_stack ~frag_size:1024 ~to_app:ignore ~to_below:(function
      | Event.D_cast _ -> incr count
      | _ -> ())
  in
  Horus_hcpi.Stack.down st (Event.D_cast (Msg.create (String.make 4096 'w')));
  count := 0;
  let m = Msg.create (String.make size 'f') in
  let before = Gc.allocated_bytes () in
  Horus_hcpi.Stack.down st (Event.D_cast m);
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  Alcotest.(check int) "64 fragments" 64 !count;
  if words >= float_of_int (3 * size / (Sys.word_size / 8)) then
    Alcotest.failf "fragmenting %d bytes allocated %.0f words" size words

(* --- NFRAG (no FIFO below) --- *)

let test_nfrag_over_reordering_net () =
  let config = { Horus_sim.Net.default_config with latency = 0.001; jitter = 0.02 } in
  let world, members = mk_group ~spec:"NFRAG(frag_size=32):COM" ~config ~seed:19 () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let big = String.init 500 (fun i -> Char.chr (48 + (i mod 75))) in
  Group.cast a big;
  World.run_for world ~duration:2.0;
  Alcotest.(check (list string)) "reassembled out of order" [ big ] (Group.casts b)

let test_nfrag_loses_whole_message_on_fragment_loss () =
  let world, members = mk_group ~spec:"NFRAG(frag_size=8):COM" ~config:(lossy 0.5) ~seed:23 () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  Group.cast a (String.make 64 'L');
  World.run_for world ~duration:2.0;
  (* Best-effort: either complete or absent, never corrupt. *)
  List.iter (fun p -> Alcotest.(check string) "intact if present" (String.make 64 'L') p)
    (Group.casts b)

(* --- CHKSUM / SIGN / ENCRYPT / COMPRESS --- *)

let test_chksum_drops_garbled () =
  let config = { Horus_sim.Net.default_config with garble_prob = 1.0 } in
  let world, members = mk_group ~spec:"CHKSUM:COM" ~config ~seed:29 () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let msgs = payloads 20 "g" in
  List.iter (Group.cast a) msgs;
  World.run_for world ~duration:1.0;
  (* Every wire packet has one flipped byte. A flip in the payload or
     checksum is dropped by CHKSUM; a flip in COM's envelope is dropped
     there. Nothing corrupted may ever surface. *)
  List.iter
    (fun p -> Alcotest.(check bool) "only pristine payloads surface" true (List.mem p msgs))
    (Group.casts b);
  (* loopback skips the wire, so a keeps its own *)
  Alcotest.(check int) "loopback intact" 20 (List.length (Group.casts a));
  (* The drops are counted, not silent. *)
  let rejected layer =
    Metrics.count (Metrics.counter (World.metrics world) ("layers." ^ layer ^ ".rejected"))
  in
  Alcotest.(check bool) "garbled copies counted as rejections" true
    (rejected "CHKSUM" + rejected "COM" > 0)

let test_chksum_passes_clean () =
  let world, members = mk_group ~spec:"CHKSUM:NAK:COM" () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let msgs = payloads 10 "c" in
  List.iter (Group.cast a) msgs;
  World.run_for world ~duration:1.0;
  Alcotest.(check (list string)) "clean traffic unharmed" msgs (Group.casts b)

let test_chksum_with_nak_repairs_garbling () =
  (* CHKSUM drops garbled copies; NAK above it retransmits until a
     clean copy arrives: garbling becomes mere loss. *)
  let config = { Horus_sim.Net.default_config with garble_prob = 0.3 } in
  let world, members = mk_group ~spec:"NAK:CHKSUM:COM" ~config ~seed:31 () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let msgs = payloads 30 "gc" in
  List.iter (Group.cast a) msgs;
  World.run_for world ~duration:10.0;
  Alcotest.(check (list string)) "garbling repaired" msgs (Group.casts b)

let test_sign_accepts_same_key () =
  let world, members = mk_group ~spec:"SIGN(key=sesame):NAK:COM" () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  Group.cast a "signed";
  World.run_for world ~duration:1.0;
  Alcotest.(check (list string)) "accepted" [ "signed" ] (Group.casts b)

let test_sign_rejects_forgery () =
  (* The intruder has the wrong key; its casts must not reach the
     member above SIGN. *)
  let world = World.create () in
  let g = World.fresh_group_addr world in
  let good = Group.join (Endpoint.create world ~spec:"SIGN(key=sesame):COM") g in
  let evil = Group.join (Endpoint.create world ~spec:"SIGN(key=wrong):COM") g in
  let v =
    View.create ~group:g ~ltime:0
      ~members:(List.sort Addr.compare_endpoint [ Group.addr good; Group.addr evil ])
  in
  Group.install_view good v;
  Group.install_view evil v;
  Group.cast evil "forged";
  World.run_for world ~duration:1.0;
  Alcotest.(check (list string)) "forgery dropped" [] (Group.casts good)

let test_encrypt_roundtrip () =
  let world, members = mk_group ~spec:"ENCRYPT(key=k1):NAK:COM" ~n:3 () in
  let a = List.hd members in
  let msgs = payloads 10 "e" in
  List.iter (Group.cast a) msgs;
  World.run_for world ~duration:1.0;
  List.iter
    (fun m -> Alcotest.(check (list string)) "decrypted" msgs (Group.casts m))
    members

let test_encrypt_hides_payload () =
  (* An eavesdropper without ENCRYPT sees bytes, but never the
     plaintext. *)
  let world = World.create () in
  let g = World.fresh_group_addr world in
  let a = Group.join (Endpoint.create world ~spec:"ENCRYPT(key=k1):COM") g in
  let eve = Group.join (Endpoint.create world ~spec:"COM") g in
  let v =
    View.create ~group:g ~ltime:0
      ~members:(List.sort Addr.compare_endpoint [ Group.addr a; Group.addr eve ])
  in
  Group.install_view a v;
  Group.install_view eve v;
  let secret = "attack at dawn, sector seven" in
  Group.cast a secret;
  World.run_for world ~duration:1.0;
  List.iter
    (fun p ->
       Alcotest.(check bool) "ciphertext only" false (contains_sub ~sub:secret p))
    (Group.casts eve)

let test_compress_roundtrip () =
  let world, members = mk_group ~spec:"COMPRESS:NAK:COM" () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let compressible = String.make 500 'A' in
  let incompressible = String.init 100 (fun i -> Char.chr (i * 37 mod 256)) in
  Group.cast a compressible;
  Group.cast a incompressible;
  World.run_for world ~duration:1.0;
  Alcotest.(check (list string)) "both roundtrip" [ compressible; incompressible ]
    (Group.casts b)

let test_compress_saves_wire_bytes () =
  let run spec =
    let world, members = mk_group ~spec () in
    let a, _ = match members with [ a; b ] -> (a, b) | _ -> assert false in
    Group.cast a (String.make 2000 'B');
    World.run_for world ~duration:1.0;
    (Horus_sim.Net.stats (World.net world)).Horus_sim.Net.bytes_sent
  in
  let plain = run "COM" in
  let packed = run "COMPRESS:COM" in
  Alcotest.(check bool)
    (Printf.sprintf "compressed wire smaller (%d < %d)" packed plain)
    true (packed < plain)

(* --- FC --- *)

let test_fc_paces_traffic () =
  (* 100 msgs at 100/s with burst 10 should take roughly a second. *)
  let world, members = mk_group ~spec:"FC(rate=100,burst=10):NAK:COM" () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  List.iter (Group.cast a) (payloads 100 "f");
  World.run_for world ~duration:0.2;
  let early = List.length (Group.casts b) in
  World.run_for world ~duration:2.0;
  let final = List.length (Group.casts b) in
  Alcotest.(check bool) (Printf.sprintf "paced (early=%d)" early) true (early < 50);
  Alcotest.(check int) "eventually all" 100 final

let test_fc_preserves_order () =
  let world, members = mk_group ~spec:"FC(rate=200,burst=5):NAK:COM" () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let msgs = payloads 50 "o" in
  List.iter (Group.cast a) msgs;
  World.run_for world ~duration:3.0;
  Alcotest.(check (list string)) "order kept" msgs (Group.casts b)

(* --- BATCH --- *)

let test_batch_delivers_all_in_order () =
  let world, members = mk_group ~spec:"BATCH(window=0.01):NAK:COM" () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  let msgs = payloads 40 "bt" in
  List.iter (Group.cast a) msgs;
  World.run_for world ~duration:1.0;
  Alcotest.(check (list string)) "all delivered in order" msgs (Group.casts b)

let test_batch_saves_packets () =
  let wire spec =
    let world, members = mk_group ~spec () in
    let a, _b = match members with [ a; b ] -> (a, b) | _ -> assert false in
    let before = (Horus_sim.Net.stats (World.net world)).Horus_sim.Net.sent in
    List.iter (Group.cast a) (payloads 64 "w");
    World.run_for world ~duration:1.0;
    (Horus_sim.Net.stats (World.net world)).Horus_sim.Net.sent - before
  in
  let plain = wire "NAK:COM" in
  let batched = wire "BATCH(window=0.005,max_batch=16):NAK:COM" in
  Alcotest.(check bool)
    (Printf.sprintf "batched %d < plain %d / 2" batched plain)
    true
    (batched * 2 < plain)

let test_batch_flushes_on_size () =
  (* max_batch 4: a burst of 4 must go out immediately, without waiting
     for the window. *)
  let world, members = mk_group ~spec:"BATCH(window=10.0,max_batch=4):NAK:COM" () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  List.iter (Group.cast a) (payloads 4 "sz");
  World.run_for world ~duration:0.1;  (* far less than the 10 s window *)
  Alcotest.(check (list string)) "size-triggered flush" (payloads 4 "sz") (Group.casts b)

let test_batch_window_flush () =
  (* A single message must still go out once the window elapses. *)
  let world, members = mk_group ~spec:"BATCH(window=0.02,max_batch=100):NAK:COM" () in
  let a, b = match members with [ a; b ] -> (a, b) | _ -> assert false in
  Group.cast a "lonely";
  World.run_for world ~duration:0.01;
  Alcotest.(check (list string)) "held within window" [] (Group.casts b);
  World.run_for world ~duration:0.1;
  Alcotest.(check (list string)) "flushed after window" [ "lonely" ] (Group.casts b)

(* --- NNAK --- *)

let test_nnak_priority_overtakes () =
  let world = World.create () in
  let g = World.fresh_group_addr world in
  let bulk = Group.join (Endpoint.create world ~spec:"NNAK(priority=1):COM") g in
  let ctl = Group.join (Endpoint.create world ~spec:"NNAK(priority=9):COM") g in
  let sink = Group.join (Endpoint.create world ~spec:"NNAK(window=0.01):COM") g in
  let addrs =
    List.sort Addr.compare_endpoint [ Group.addr bulk; Group.addr ctl; Group.addr sink ]
  in
  let v = View.create ~group:g ~ltime:0 ~members:addrs in
  List.iter (fun m -> Group.install_view m v) [ bulk; ctl; sink ];
  (* Bulk casts first; both arrive within the sink's batching window,
     but the control message must be delivered first. *)
  Group.cast bulk "bulk";
  Group.cast ctl "control";
  World.run_for world ~duration:1.0;
  match Group.casts sink with
  | [ "control"; "bulk" ] -> ()
  | other -> Alcotest.failf "priority not honoured: [%s]" (String.concat "; " other)

let () =
  Alcotest.run "layers"
    [ ( "nak",
        [ Alcotest.test_case "FIFO no loss" `Quick test_nak_fifo_no_loss;
          Alcotest.test_case "recovers 30% loss" `Quick test_nak_recovers_loss;
          Alcotest.test_case "heavy loss, 3 members" `Quick test_nak_recovers_heavy_loss_multi;
          Alcotest.test_case "reordering repaired" `Quick test_nak_reordering_repaired;
          Alcotest.test_case "duplicates suppressed" `Quick test_nak_duplicates_suppressed;
          Alcotest.test_case "sends reliable" `Quick test_nak_sends_reliable;
          Alcotest.test_case "placeholders -> LOST_MESSAGE" `Quick
            test_nak_placeholder_lost_message;
          Alcotest.test_case "placeholders after the ring wraps" `Quick
            test_nak_placeholders_after_wrap;
          Alcotest.test_case "request clamped to assigned seqs" `Quick test_nak_request_clamped;
          Alcotest.test_case "far-ahead data seq dropped" `Quick test_nak_far_ahead_dropped;
          Alcotest.test_case "long honest burst not refused" `Quick
            test_nak_long_burst_not_refused;
          Alcotest.test_case "PROBLEM on silence" `Quick test_nak_problem_on_silence;
          Alcotest.test_case "no false suspicion" `Quick test_nak_no_problem_when_alive ] );
      ( "frag",
        [ Alcotest.test_case "large message" `Quick test_frag_large_message;
          Alcotest.test_case "exact boundary" `Quick test_frag_exact_boundary;
          Alcotest.test_case "interleaved origins" `Quick test_frag_interleaved_origins;
          Alcotest.test_case "under loss" `Quick test_frag_under_loss;
          Alcotest.test_case "send path" `Quick test_frag_send_path;
          Alcotest.test_case "round trip at every boundary length" `Quick
            test_frag_roundtrip_lengths;
          Alcotest.test_case "fragmenting allocates linearly" `Quick test_frag_alloc_linear ] );
      ( "nfrag",
        [ Alcotest.test_case "over reordering net" `Quick test_nfrag_over_reordering_net;
          Alcotest.test_case "all-or-nothing" `Quick
            test_nfrag_loses_whole_message_on_fragment_loss ] );
      ( "filters",
        [ Alcotest.test_case "chksum drops garbled" `Quick test_chksum_drops_garbled;
          Alcotest.test_case "chksum passes clean" `Quick test_chksum_passes_clean;
          Alcotest.test_case "chksum+nak repair garbling" `Quick
            test_chksum_with_nak_repairs_garbling;
          Alcotest.test_case "sign accepts same key" `Quick test_sign_accepts_same_key;
          Alcotest.test_case "sign rejects forgery" `Quick test_sign_rejects_forgery;
          Alcotest.test_case "encrypt roundtrip" `Quick test_encrypt_roundtrip;
          Alcotest.test_case "encrypt hides payload" `Quick test_encrypt_hides_payload;
          Alcotest.test_case "compress roundtrip" `Quick test_compress_roundtrip;
          Alcotest.test_case "compress saves bytes" `Quick test_compress_saves_wire_bytes ] );
      ( "batch",
        [ Alcotest.test_case "delivers all in order" `Quick test_batch_delivers_all_in_order;
          Alcotest.test_case "saves packets" `Quick test_batch_saves_packets;
          Alcotest.test_case "flushes on size" `Quick test_batch_flushes_on_size;
          Alcotest.test_case "flushes on window" `Quick test_batch_window_flush ] );
      ( "fc",
        [ Alcotest.test_case "paces traffic" `Quick test_fc_paces_traffic;
          Alcotest.test_case "preserves order" `Quick test_fc_preserves_order ] );
      ( "nnak",
        [ Alcotest.test_case "priority overtakes" `Quick test_nnak_priority_overtakes ] ) ]
