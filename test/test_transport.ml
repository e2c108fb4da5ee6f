(* The transport subsystem: frame codec (round-trip and rejection),
   peer book parsing, the loopback backend raw and under a full
   protocol stack, bad-frame injection, the wall-clock driver, and —
   only when HORUS_UDP_TESTS=1 (the CI transport job) — real UDP
   sockets. Everything else runs in virtual time and is deterministic. *)

open Horus
module T = Horus_transport
module I = Horus_check.Invariant

(* --- frame codec ------------------------------------------------- *)

let payload_arb = QCheck.(map Bytes.of_string (string_of_size Gen.(0 -- 2000)))

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame: encode/decode round-trip" ~count:300
    QCheck.(triple payload_arb (int_bound 100_000) (int_bound 100_000))
    (fun (payload, src, gid) ->
       let frame =
         T.Frame.encode ~src:(Addr.endpoint src) ~group:(Addr.group gid) payload
       in
       match T.Frame.decode frame with
       | Ok (hdr, body) ->
         Addr.endpoint_id hdr.T.Frame.h_src = src
         && Addr.group_id hdr.T.Frame.h_group = gid
         && Bytes.equal body payload
       | Error _ -> false)

let prop_frame_truncation =
  QCheck.Test.make ~name:"frame: every proper prefix is rejected" ~count:100 payload_arb
    (fun payload ->
       let frame = T.Frame.encode ~src:(Addr.endpoint 7) ~group:(Addr.group 3) payload in
       let n = Bytes.length frame in
       List.for_all
         (fun k ->
            match T.Frame.decode (Bytes.sub frame 0 k) with
            | Error _ -> true
            | Ok _ -> false)
         (List.init n (fun k -> k)))

let prop_frame_corruption =
  QCheck.Test.make ~name:"frame: any single flipped byte is rejected" ~count:100
    QCheck.(pair payload_arb (int_bound 10_000))
    (fun (payload, pos_seed) ->
       let frame = T.Frame.encode ~src:(Addr.endpoint 7) ~group:(Addr.group 3) payload in
       let pos = pos_seed mod Bytes.length frame in
       let garbled = Bytes.copy frame in
       Bytes.set garbled pos (Char.chr (Char.code (Bytes.get garbled pos) lxor 0x40));
       match T.Frame.decode garbled with Error _ -> true | Ok _ -> false)

(* [decode_view] — the decoder every rx path uses — agrees with
   [decode] on every frame, wherever it sits inside a larger buffer,
   locates the payload inside the view, and rejects the same
   prefixes. *)
let prop_frame_decode_view_equiv =
  QCheck.Test.make ~name:"frame: decode_view = decode on any slice" ~count:300
    QCheck.(triple payload_arb (int_bound 64) (int_bound 100_000))
    (fun (payload, pad, src) ->
       let frame = T.Frame.encode ~src:(Addr.endpoint src) ~group:(Addr.group 3) payload in
       let n = Bytes.length frame in
       (* Embed the frame at [pad] inside a dirty buffer, the way a
          reused rx ring presents it. *)
       let buf = Bytes.make (pad + n + 16) '\xAA' in
       Bytes.blit frame 0 buf pad n;
       let whole =
         match (T.Frame.decode_view buf ~off:pad ~len:n, T.Frame.decode frame) with
         | Ok (h1, poff, plen), Ok (h2, b2) ->
           Addr.equal_endpoint h1.T.Frame.h_src h2.T.Frame.h_src
           && Addr.equal_group h1.T.Frame.h_group h2.T.Frame.h_group
           && poff >= pad && poff + plen <= pad + n
           && Bytes.equal (Bytes.sub buf poff plen) b2
         | Error _, Error _ -> true
         | _ -> false
       in
       let prefixes_rejected =
         List.for_all
           (fun k ->
              match T.Frame.decode_view buf ~off:pad ~len:k with
              | Error _ -> true
              | Ok _ -> false)
           (List.init (min n 24) (fun k -> k))
       in
       whole && prefixes_rejected)

(* --- decoder fuzzing ----------------------------------------------- *)

type mutation =
  | Flip of int * int          (* position seed, bit *)
  | Truncate of int            (* bytes cut off the end *)
  | Extend of string           (* bytes appended *)
  | Garbage of int * string    (* position seed, bytes written over *)

let pp_mutation = function
  | Flip (p, bit) -> Printf.sprintf "flip(%d,bit %d)" p bit
  | Truncate k -> Printf.sprintf "truncate(%d)" k
  | Extend s -> Printf.sprintf "extend(%S)" s
  | Garbage (p, s) -> Printf.sprintf "garbage(%d,%S)" p s

let gen_mutation =
  QCheck.Gen.(
    oneof
      [ map2 (fun p bit -> Flip (p, bit)) nat (int_bound 7);
        map (fun k -> Truncate (k + 1)) (int_bound 40);
        map (fun s -> Extend s) (string_size (int_range 1 32));
        map2 (fun p s -> Garbage (p, s)) nat (string_size (int_range 1 16)) ])

let mutate b = function
  | Flip (p, bit) ->
    let n = Bytes.length b in
    if n = 0 then b
    else begin
      let b = Bytes.copy b in
      let i = p mod n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
      b
    end
  | Truncate k -> Bytes.sub b 0 (max 0 (Bytes.length b - k))
  | Extend s -> Bytes.cat b (Bytes.of_string s)
  | Garbage (p, s) ->
    let n = Bytes.length b in
    if n = 0 then b
    else begin
      let b = Bytes.copy b in
      let i = p mod n in
      Bytes.blit_string s 0 b i (min (String.length s) (n - i));
      b
    end

(* A transport stub that keeps the rx callback a link installs, so the
   test can hand that callback arbitrary datagrams. *)
let stub_backend () =
  let rx = ref (fun ~src:_ _ -> ()) in
  ( { T.Backend.local_addr = "stub:0";
      send = (fun ~dest:_ _ -> ());
      set_rx = (fun f -> rx := f);
      fd = None;
      poll = (fun () -> 0);
      close = (fun () -> ());
      stats = T.Backend.fresh_stats ();
      batch = None;
      doorbell = None },
    fun ~src b -> !rx ~src b )

(* Random bit flips, truncations, extensions and overwrites of a valid
   frame, presented at a random offset inside a larger dirty buffer:
   the decoder never raises, never points outside the view, and
   rejects every mutant. Handed to the link's rx as its own datagram,
   each mutant is counted in [bad_frame] and delivered to nobody. *)
let prop_frame_fuzz =
  let backend, rx = stub_backend () in
  let link = Transport_link.create (World.create ()) in
  let mux = Transport_link.mux link ~backend ~peers:(T.Peers.create ()) in
  let delivered = ref 0 in
  Transport_link.route_raw mux ~gid:3 (fun ~src:_ _ -> incr delivered);
  let gen =
    QCheck.Gen.(
      quad
        (string_size (int_bound 300))
        (list_size (int_range 1 4) gen_mutation)
        (pair (string_size (int_bound 64)) (string_size (int_bound 64)))
        (int_bound 100_000))
  in
  let print (payload, muts, (pre, post), src) =
    Printf.sprintf "payload=%d bytes src=%d pad=%d+%d %s" (String.length payload) src
      (String.length pre) (String.length post)
      (String.concat " " (List.map pp_mutation muts))
  in
  QCheck.Test.make ~name:"frame: mutated frames rejected and counted" ~count:1000
    (QCheck.make ~print gen)
    (fun (payload, muts, (pre, post), src) ->
       let frame =
         T.Frame.encode ~src:(Addr.endpoint src) ~group:(Addr.group 3)
           (Bytes.of_string payload)
       in
       let mutant = List.fold_left mutate frame muts in
       QCheck.assume (not (Bytes.equal mutant frame));
       let off = String.length pre and len = Bytes.length mutant in
       let buf = Bytes.concat Bytes.empty [ Bytes.of_string pre; mutant; Bytes.of_string post ] in
       let in_view =
         match T.Frame.decode_view buf ~off ~len with
         | Ok (_, poff, plen) -> poff >= off && plen >= 0 && poff + plen <= off + len
         | Error _ -> true
         | exception e -> QCheck.Test.fail_reportf "decoder raised %s" (Printexc.to_string e)
       in
       let rejected =
         match T.Frame.decode_view buf ~off ~len with Ok _ -> false | Error _ -> true
       in
       let bad0 = backend.T.Backend.stats.T.Backend.bad_frame and got0 = !delivered in
       rx ~src:"fuzz" (Bytes.sub buf off len);
       in_view && rejected
       && backend.T.Backend.stats.T.Backend.bad_frame = bad0 + 1
       && !delivered = got0)

(* --- CRC-32 against a byte-at-a-time reference --------------------- *)

let crc32_ref_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32_ref ?(init = 0) b ~off ~len =
  let c = ref (init lxor 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    c := crc32_ref_table.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let prop_crc32_reference =
  QCheck.Test.make ~name:"crc32: equals the byte-at-a-time reference" ~count:300
    QCheck.(
      quad (string_of_size Gen.(0 -- 4200)) (pair small_nat small_nat) small_nat
        (int_bound 0x3FFFFFFF))
    (fun (s, (off_seed, len_seed), split_seed, init_seed) ->
       let b = Bytes.of_string s in
       let n = Bytes.length b in
       let off = off_seed mod (n + 1) in
       let len = len_seed * 37 mod (min 4096 (n - off) + 1) in
       let k = split_seed mod (len + 1) in
       let init = (init_seed * 4 + 3) land 0xFFFFFFFF in
       let agrees (crc : ?init:int -> Bytes.t -> off:int -> len:int -> int) =
         let whole = crc b ~off ~len in
         whole = crc32_ref b ~off ~len
         && crc ~init:(crc b ~off ~len:k) b ~off:(off + k) ~len:(len - k) = whole
         && crc ~init b ~off ~len = crc32_ref ~init b ~off ~len
       in
       (* Both paths: the kernel (where the CPU has it) and the tables. *)
       agrees Horus_util.Crc.crc32 && agrees Horus_util.Crc.crc32_tables)

(* Every length around the kernel's boundaries (under 64 bytes, a
   16-byte tail or none, one or more 64-byte blocks), at every
   alignment, from a zero and from a random [init]. *)
let crc_sweep () =
  let rng = Random.State.make [| 18 |] in
  let b = Bytes.init (8192 + 16) (fun _ -> Char.chr (Random.State.int rng 256)) in
  let inits = [ 0; Random.State.full_int rng 0x1_0000_0000 ] in
  List.iter
    (fun len ->
       for off = 0 to 15 do
         List.iter
           (fun init ->
              let want = crc32_ref ~init b ~off ~len in
              let check name (crc : ?init:int -> Bytes.t -> off:int -> len:int -> int) =
                Alcotest.(check int)
                  (Printf.sprintf "%s len %d off %d init %08x" name len off init)
                  want (crc ~init b ~off ~len)
              in
              check "crc32" Horus_util.Crc.crc32;
              check "crc32_tables" Horus_util.Crc.crc32_tables)
           inits
       done)
    [ 0; 1; 15; 16; 17; 63; 64; 65; 79; 80; 127; 128; 129; 1019; 1024; 4096; 8192 ]

(* A build that silently loses the carry-less-multiply kernel still
   passes every value check, so pin its presence: on a CPU that offers
   PCLMULQDQ and SSE4.1, [Crc.accelerated] must hold. *)
let crc_kernel_where_supported () =
  match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
  | exception Sys_error _ -> ()
  | info ->
    let flags =
      List.concat_map
        (fun line ->
           match String.index_opt line ':' with
           | Some i when String.trim (String.sub line 0 i) = "flags" ->
             String.split_on_char ' ' (String.sub line (i + 1) (String.length line - i - 1))
           | _ -> [])
        (String.split_on_char '\n' info)
    in
    if List.mem "pclmulqdq" flags && List.mem "sse4_1" flags then
      Alcotest.(check bool) "Crc.accelerated" true Horus_util.Crc.accelerated

(* The exact wire image of one frame: any change to the layout, field
   order, byte order or checksum shows up here first. *)
let frame_golden () =
  let frame =
    T.Frame.encode ~src:(Addr.endpoint 7) ~group:(Addr.group 0xC0FFEE)
      (Bytes.of_string "Horus frame")
  in
  let hex =
    String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (Bytes.to_seq frame)))
  in
  Alcotest.(check string) "wire bytes"
    "4844010000000700c0ffee0000000b486f727573206672616d65f96aa3c2" hex

(* A zero-length payload is a legal frame: exactly [overhead] bytes,
   round-trips, and still rejects corruption. *)
let frame_zero_length () =
  let frame = T.Frame.encode ~src:(Addr.endpoint 5) ~group:(Addr.group 9) Bytes.empty in
  Alcotest.(check int) "exactly overhead bytes" T.Frame.overhead (Bytes.length frame);
  (match T.Frame.decode frame with
   | Ok (hdr, body) ->
     Alcotest.(check int) "src" 5 (Addr.endpoint_id hdr.T.Frame.h_src);
     Alcotest.(check int) "empty body" 0 (Bytes.length body)
   | Error e -> Alcotest.failf "zero-length frame rejected: %s" (T.Frame.error_to_string e));
  for pos = 0 to Bytes.length frame - 1 do
    let garbled = Bytes.copy frame in
    Bytes.set garbled pos (Char.chr (Char.code (Bytes.get garbled pos) lxor 1));
    match T.Frame.decode garbled with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted flip at byte %d of empty frame" pos
  done

(* Exhaustive single-bit corruption: every bit of every byte of a
   small frame, deterministically — the quickcheck property above
   samples this space, this test closes it. *)
let frame_every_bit_flip () =
  let frame =
    T.Frame.encode ~src:(Addr.endpoint 7) ~group:(Addr.group 3)
      (Bytes.of_string "chaos!")
  in
  for pos = 0 to Bytes.length frame - 1 do
    for bit = 0 to 7 do
      let garbled = Bytes.copy frame in
      Bytes.set garbled pos (Char.chr (Char.code (Bytes.get garbled pos) lxor (1 lsl bit)));
      match T.Frame.decode garbled with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted flip of bit %d at byte %d" bit pos
    done
  done

(* A UDP-ceiling payload round-trips; truncating one byte off the end
   is rejected. *)
let frame_max_payload () =
  let payload = Bytes.make (65_507 - T.Frame.overhead) '\xa5' in
  let frame = T.Frame.encode ~src:(Addr.endpoint 1) ~group:(Addr.group 2) payload in
  Alcotest.(check int) "fills the datagram" 65_507 (Bytes.length frame);
  (match T.Frame.decode frame with
   | Ok (_, body) -> Alcotest.(check bool) "body intact" true (Bytes.equal body payload)
   | Error e -> Alcotest.failf "max-payload frame rejected: %s" (T.Frame.error_to_string e));
  match T.Frame.decode (Bytes.sub frame 0 (Bytes.length frame - 1)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated max-payload frame"

(* Tampering with the declared length and fixing the CRC up still
   fails: the paylen field must agree with the actual body size. *)
let frame_length_mismatch () =
  let frame = T.Frame.encode ~src:(Addr.endpoint 7) ~group:(Addr.group 3)
      (Bytes.of_string "body") in
  let garbled = Bytes.copy frame in
  (* paylen is the u32 after magic(2) + version(1) + src(4) + gid(4). *)
  let paylen_off = 11 in
  Bytes.set_int32_be garbled paylen_off
    (Int32.add (Bytes.get_int32_be garbled paylen_off) 1l);
  let n = Bytes.length garbled in
  Bytes.set_int32_be garbled (n - 4)
    (Int32.of_int (Horus_util.Crc.crc32 garbled ~off:0 ~len:(n - 4)));
  match T.Frame.decode garbled with
  | Error (T.Frame.Length_mismatch { declared = 5; actual = 4 }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (T.Frame.error_to_string e)
  | Ok _ -> Alcotest.fail "accepted length mismatch"

let frame_version () =
  let frame =
    T.Frame.encode ~version:3 ~src:(Addr.endpoint 1) ~group:(Addr.group 0)
      (Bytes.of_string "x")
  in
  match T.Frame.decode frame with
  | Error (T.Frame.Bad_version 3) -> ()
  | other ->
    Alcotest.failf "expected Bad_version 3, got %s"
      (match other with
       | Ok _ -> "Ok"
       | Error e -> T.Frame.error_to_string e)

let frame_magic () =
  match T.Frame.decode (Bytes.make T.Frame.overhead '\xff') with
  | Error (T.Frame.Bad_magic _) -> ()
  | _ -> Alcotest.fail "expected Bad_magic"

let crc_check_value () =
  (* The ISO-HDLC check value: CRC-32 of "123456789". *)
  Alcotest.(check int) "crc32" 0xCBF43926 (Horus_util.Crc.crc32_string "123456789")

(* --- peer book ---------------------------------------------------- *)

let peers_parse () =
  (match T.Peers.parse "1=127.0.0.1:7002, 0=127.0.0.1:7001" with
   | Ok p ->
     Alcotest.(check int) "size" 2 (T.Peers.size p);
     Alcotest.(check (option string)) "rank 0" (Some "127.0.0.1:7001") (T.Peers.find p ~rank:0);
     Alcotest.(check (option int)) "rank_of" (Some 1)
       (T.Peers.rank_of p ~addr:"127.0.0.1:7002");
     Alcotest.(check string) "canonical" "0=127.0.0.1:7001,1=127.0.0.1:7002"
       (T.Peers.to_string p)
   | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
       match T.Peers.parse bad with
       | Ok _ -> Alcotest.failf "accepted %S" bad
       | Error _ -> ())
    [ ""; "0=a,0=b"; "-1=a"; "x=a"; "0" ]

(* --- loopback backend, raw ---------------------------------------- *)

let loopback_raw () =
  let engine = Horus_sim.Engine.create () in
  let hub = T.Loopback.hub engine in
  let a = T.Loopback.create hub and b = T.Loopback.create hub in
  let got = ref [] in
  b.T.Backend.set_rx (fun ~src bytes -> got := (src, Bytes.to_string bytes) :: !got);
  a.T.Backend.send ~dest:b.T.Backend.local_addr (Bytes.of_string "hello");
  a.T.Backend.send ~dest:"mem:99" (Bytes.of_string "void");
  Alcotest.(check (list (pair string string))) "nothing before the engine runs" [] !got;
  Horus_sim.Engine.run engine;
  Alcotest.(check (list (pair string string)))
    "delivered with source address"
    [ (a.T.Backend.local_addr, "hello") ]
    !got;
  Alcotest.(check int) "sent counts both" 2 a.T.Backend.stats.T.Backend.sent;
  Alcotest.(check int) "unknown dest dropped" 1 a.T.Backend.stats.T.Backend.dropped;
  Alcotest.(check int) "delivered" 1 b.T.Backend.stats.T.Backend.delivered;
  b.T.Backend.close ();
  a.T.Backend.send ~dest:b.T.Backend.local_addr (Bytes.of_string "late");
  Horus_sim.Engine.run engine;
  Alcotest.(check int) "closed receiver gets nothing" 1 b.T.Backend.stats.T.Backend.delivered

(* Datagrams that beat the receiver's set_rx are queued and flushed in
   order once the callback lands — the regression for the early-frame
   drop, where a founder's first status frames raced a joiner's
   attach. *)
let loopback_early_rx () =
  let engine = Horus_sim.Engine.create () in
  let hub = T.Loopback.hub engine in
  let a = T.Loopback.create hub and b = T.Loopback.create hub in
  a.T.Backend.send ~dest:b.T.Backend.local_addr (Bytes.of_string "one");
  a.T.Backend.send ~dest:b.T.Backend.local_addr (Bytes.of_string "two");
  Horus_sim.Engine.run engine;
  Alcotest.(check int) "queued, not dropped" 0 b.T.Backend.stats.T.Backend.dropped;
  let got = ref [] in
  b.T.Backend.set_rx (fun ~src:_ bytes -> got := Bytes.to_string bytes :: !got);
  Alcotest.(check (list string)) "flushed in arrival order" [ "one"; "two" ] (List.rev !got);
  a.T.Backend.send ~dest:b.T.Backend.local_addr (Bytes.of_string "three");
  Horus_sim.Engine.run engine;
  Alcotest.(check (list string)) "live delivery after the flush"
    [ "one"; "two"; "three" ] (List.rev !got)

(* The early-frame queue is bounded: beyond [pending_limit] the oldest
   arrival is dropped and counted, so a never-attached receiver cannot
   hold unbounded memory. *)
let loopback_pending_bounded () =
  let engine = Horus_sim.Engine.create () in
  let hub = T.Loopback.hub engine in
  let a = T.Loopback.create hub and b = T.Loopback.create hub in
  let extra = 5 in
  for k = 0 to T.Loopback.pending_limit + extra - 1 do
    a.T.Backend.send ~dest:b.T.Backend.local_addr
      (Bytes.of_string (string_of_int k))
  done;
  Horus_sim.Engine.run engine;
  Alcotest.(check int) "oldest dropped" extra b.T.Backend.stats.T.Backend.dropped;
  let first = ref None and count = ref 0 in
  b.T.Backend.set_rx (fun ~src:_ bytes ->
      if !first = None then first := Some (Bytes.to_string bytes);
      incr count);
  Alcotest.(check int) "limit survivors" T.Loopback.pending_limit !count;
  Alcotest.(check (option string)) "oldest survivor"
    (Some (string_of_int extra)) !first

(* --- full stack over loopback (virtual time, deterministic) ------- *)

let spec = "TOTAL:MBRSHIP:FRAG:NAK:COM"

(* Two endpoints on a loopback hub, the section-7 stack, 500 casts
   each; check the full virtual-synchrony bundle plus total order with
   the shared invariant library. *)
let loopback_full_stack () =
  let world = World.create () in
  let hub = T.Loopback.hub (World.engine world) in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let n = 2 and casts_each = 500 in
  let backends =
    List.init n (fun r ->
        let b = T.Loopback.create ~addr:(Printf.sprintf "mem:%d" r) hub in
        T.Peers.add peers ~rank:r ~addr:b.T.Backend.local_addr;
        b)
  in
  let endpoints =
    List.mapi (fun r backend -> Transport_link.endpoint link ~backend ~peers ~rank:r ~spec)
      backends
  in
  let g = World.fresh_group_addr world in
  let groups =
    match endpoints with
    | first :: rest ->
      let founder = Group.join ~record:false first g in
      founder
      :: List.map (fun ep -> Group.join ~record:false ~contact:(Group.addr founder) ep g) rest
    | [] -> assert false
  in
  (* Runner-style recorders for the invariant library. *)
  let recs =
    List.map
      (fun gr ->
         let casts = ref [] and views = ref [] in
         Group.set_on_up gr (fun ev ->
             match ev with
             | Horus_hcpi.Event.U_cast (_, m, _) ->
               let epoch =
                 match Group.view gr with Some v -> View.ltime v | None -> -1
               in
               casts := (Msg.to_string m, epoch) :: !casts
             | Horus_hcpi.Event.U_view v ->
               views :=
                 ( (View.ltime v, Addr.endpoint_id (View.coordinator v)),
                   List.map Addr.endpoint_id (View.members v) )
                 :: !views
             | _ -> ());
         (casts, views))
      groups
  in
  World.run_for world ~duration:2.0;
  List.iteri
    (fun origin gr ->
       for k = 0 to casts_each - 1 do
         World.after world ~delay:(0.002 *. float_of_int (k + 1)) (fun () ->
             Group.cast gr (I.payload ~tag:'o' ~origin ~k ()))
       done)
    groups;
  World.run_for world ~duration:(0.002 *. float_of_int casts_each);
  World.run_for world ~duration:5.0;
  let obs =
    List.mapi
      (fun i (gr, (casts, views)) ->
         { I.o_member = i;
           o_eid = Addr.endpoint_id (Group.addr gr);
           o_crashed = false;
           o_left = false;
           o_exited = Group.exited gr;
           o_casts = List.rev !casts;
           o_views = List.rev !views;
           o_final =
             (match Group.view gr with
              | Some v -> Some (View.ltime v, List.map Addr.endpoint_id (View.members v))
              | None -> None) })
      (List.combine groups recs)
  in
  List.iter
    (fun o ->
       Alcotest.(check int)
         (Printf.sprintf "member %d delivered all %d casts" o.I.o_member (n * casts_each))
         (n * casts_each) (List.length o.I.o_casts))
    obs;
  (match I.standard ~total:true ~tag:'o' ~sent:(fun _ -> casts_each) obs with
   | [] -> ()
   | vs ->
     Alcotest.failf "invariant violations: %s"
       (String.concat "; "
          (List.map (fun v -> Format.asprintf "%a" I.pp_violation v) vs)));
  (* All traffic rode the transport, none of it the simulated net. *)
  let sent =
    List.fold_left (fun acc b -> acc + b.T.Backend.stats.T.Backend.sent) 0 backends
  in
  Alcotest.(check bool) "transport carried the run" true (sent > 2 * n * casts_each / 2);
  Alcotest.(check int) "sim net idle" 0
    (Horus_sim.Net.stats (World.net world)).Horus_sim.Net.sent

(* Determinism: two identical loopback worlds serialize to the same
   metrics snapshot, transport section included. *)
let loopback_deterministic () =
  let run () =
    let world = World.create () in
    let hub = T.Loopback.hub (World.engine world) in
    let link = Transport_link.create world in
    let peers = T.Peers.create () in
    let backends =
      List.init 2 (fun r ->
          let b = T.Loopback.create ~addr:(Printf.sprintf "mem:%d" r) hub in
          T.Peers.add peers ~rank:r ~addr:b.T.Backend.local_addr;
          b)
    in
    let eps =
      List.mapi
        (fun r backend -> Transport_link.endpoint link ~backend ~peers ~rank:r ~spec)
        backends
    in
    let g = World.fresh_group_addr world in
    let a = Group.join (List.nth eps 0) g in
    let _b = Group.join ~contact:(Group.addr a) (List.nth eps 1) g in
    World.run_for world ~duration:2.0;
    for k = 0 to 19 do
      World.after world ~delay:(0.002 *. float_of_int k) (fun () ->
          Group.cast a (Printf.sprintf "m%d" k))
    done;
    World.run_for world ~duration:2.0;
    Json.to_string (World.metrics_json world)
  in
  Alcotest.(check string) "same snapshot" (run ()) (run ())

(* A rogue datagram hits a stack endpoint: counted bad, stack unharmed. *)
let bad_frame_injection () =
  let world = World.create () in
  let hub = T.Loopback.hub (World.engine world) in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let backends =
    List.init 2 (fun r ->
        let b = T.Loopback.create ~addr:(Printf.sprintf "mem:%d" r) hub in
        T.Peers.add peers ~rank:r ~addr:b.T.Backend.local_addr;
        b)
  in
  let eps =
    List.mapi (fun r backend -> Transport_link.endpoint link ~backend ~peers ~rank:r ~spec)
      backends
  in
  let g = World.fresh_group_addr world in
  let a = Group.join (List.nth eps 0) g in
  let b = Group.join ~contact:(Group.addr a) (List.nth eps 1) g in
  World.run_for world ~duration:2.0;
  let rogue = T.Loopback.create hub in
  rogue.T.Backend.send ~dest:"mem:0" (Bytes.of_string "not a horus frame");
  rogue.T.Backend.send ~dest:"mem:0" Bytes.empty;
  Group.cast a "after";
  World.run_for world ~duration:2.0;
  Alcotest.(check int) "bad frames counted" 2
    (List.nth backends 0).T.Backend.stats.T.Backend.bad_frame;
  Alcotest.(check (list string)) "stack unharmed" [ "after" ] (Group.casts b)

(* The dedicated-socket demux ([Transport_link.endpoint]): each socket
   carries one endpoint, and frames are demuxed on their gid exactly as
   on a shared mux. A valid frame for a gid the endpoint never joined is
   dropped and counted once; once the endpoint crashes its socket is
   closed, so later frames are neither delivered nor counted. *)
let dedicated_socket_demux () =
  let world = World.create () in
  let hub = T.Loopback.hub (World.engine world) in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let backends =
    List.init 2 (fun r ->
        let b = T.Loopback.create ~addr:(Printf.sprintf "mem:%d" r) hub in
        T.Peers.add peers ~rank:r ~addr:b.T.Backend.local_addr;
        b)
  in
  let eps =
    List.mapi (fun r backend -> Transport_link.endpoint link ~backend ~peers ~rank:r ~spec)
      backends
  in
  let g = World.fresh_group_addr world in
  let a = Group.join (List.nth eps 0) g in
  let b = Group.join ~contact:(Group.addr a) (List.nth eps 1) g in
  World.run_for world ~duration:2.0;
  let unknown0 = Transport_link.unknown_gid link in
  let rogue = T.Loopback.create hub in
  let stray () =
    rogue.T.Backend.send ~dest:"mem:1"
      (T.Frame.encode ~src:(Addr.endpoint 0) ~group:(Addr.group 424242)
         (Bytes.of_string "stray"))
  in
  stray ();
  World.run_for world ~duration:0.5;
  Alcotest.(check int) "unjoined gid counted once" (unknown0 + 1)
    (Transport_link.unknown_gid link);
  Alcotest.(check (list string)) "stray not delivered" [] (Group.casts b);
  Group.cast a "joined";
  World.run_for world ~duration:1.0;
  Alcotest.(check (list string)) "joined gid delivered" [ "joined" ] (Group.casts b);
  Endpoint.crash (List.nth eps 1);
  stray ();
  Group.cast a "after crash";
  World.run_for world ~duration:1.0;
  Alcotest.(check (list string)) "nothing delivered after crash" [ "joined" ]
    (Group.casts b);
  Alcotest.(check int) "nothing counted after crash" (unknown0 + 1)
    (Transport_link.unknown_gid link)

(* --- wall-clock driver -------------------------------------------- *)

(* Real time, but bounded to tens of milliseconds: a timer scheduled on
   the engine fires under the driver at roughly the right wall moment. *)
let driver_fires_timers () =
  let engine = Horus_sim.Engine.create () in
  let driver = T.Driver.create ~max_tick:0.01 engine [] in
  let fired = ref false in
  ignore (Horus_sim.Engine.schedule engine ~delay:0.05 (fun () -> fired := true));
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "fired" true (T.Driver.run_until ~timeout:2.0 driver (fun () -> !fired));
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "not before its time" true (dt >= 0.045);
  Alcotest.(check bool) "not absurdly late" true (dt < 1.0)

(* The idle-step sleep clamp, as a pure function: the select timeout
   is [until_timer] clamped into [min_sleep, max_tick], then capped by
   [max_wait] — which alone may force 0 (a caller in a hurry), so a
   stuck-in-the-past timer queue can never busy-spin the idle loop. *)
let driver_sleep_for () =
  let f = T.Driver.sleep_for ~max_tick:0.05 ~min_sleep:0.0005 in
  let check name expected got = Alcotest.(check (float 1e-12)) name expected got in
  check "in range passes through" 0.01 (f ~until_timer:0.01 ());
  check "short timer floored" 0.0005 (f ~until_timer:0.0001 ());
  check "due timer floored" 0.0005 (f ~until_timer:0.0 ());
  check "overdue timer floored" 0.0005 (f ~until_timer:(-3.0) ());
  check "distant timer capped" 0.05 (f ~until_timer:10.0 ());
  check "no timer capped" 0.05 (f ~until_timer:infinity ());
  check "max_wait tightens" 0.002 (f ~max_wait:0.002 ~until_timer:0.01 ());
  check "max_wait may force zero" 0.0 (f ~max_wait:0.0 ~until_timer:0.01 ());
  check "negative max_wait clamps to zero" 0.0 (f ~max_wait:(-1.0) ~until_timer:0.01 ());
  check "loose max_wait irrelevant" 0.01 (f ~max_wait:1.0 ~until_timer:0.01 ())

(* Socket facade over loopback: recvfrom_timeout blocks on the driver
   and times out honestly. Group formation runs in virtual time first;
   only the receive itself uses the wall clock. *)
let socket_recvfrom_timeout () =
  let world = World.create () in
  let hub = T.Loopback.hub (World.engine world) in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let backends =
    List.init 2 (fun r ->
        let b = T.Loopback.create ~addr:(Printf.sprintf "mem:%d" r) hub in
        T.Peers.add peers ~rank:r ~addr:b.T.Backend.local_addr;
        b)
  in
  let eps =
    List.mapi (fun r backend -> Transport_link.endpoint link ~backend ~peers ~rank:r ~spec)
      backends
  in
  let g = World.fresh_group_addr world in
  let sa = Socket.create (List.nth eps 0) g in
  let sb = Socket.create ~contact:(Group.addr (Socket.group sa)) (List.nth eps 1) g in
  World.run_for world ~duration:2.0;
  let driver = T.Driver.create ~max_tick:0.01 (World.engine world) backends in
  Alcotest.(check (option (pair int string)))
    "empty queue times out" None
    (Socket.recvfrom_timeout sb ~driver ~timeout:0.05);
  Socket.sendto sa "over the wire";
  (match Socket.recvfrom_timeout sb ~driver ~timeout:5.0 with
   | Some (_, payload) -> Alcotest.(check string) "payload" "over the wire" payload
   | None -> Alcotest.fail "recvfrom_timeout returned nothing")

(* --- UDP (CI transport job only: HORUS_UDP_TESTS=1) ---------------- *)

let udp_enabled = Sys.getenv_opt "HORUS_UDP_TESTS" = Some "1"

let udp_raw_roundtrip () =
  let engine = Horus_sim.Engine.create () in
  let a = T.Udp.create ~bind:"127.0.0.1:0" () in
  let b = T.Udp.create ~bind:"127.0.0.1:0" () in
  let driver = T.Driver.create engine [ a; b ] in
  let got = ref None in
  b.T.Backend.set_rx (fun ~src bytes -> got := Some (src, Bytes.to_string bytes));
  a.T.Backend.send ~dest:b.T.Backend.local_addr (Bytes.of_string "ping");
  Alcotest.(check bool) "received" true
    (T.Driver.run_until ~timeout:5.0 driver (fun () -> !got <> None));
  (match !got with
   | Some (src, payload) ->
     Alcotest.(check string) "payload" "ping" payload;
     Alcotest.(check string) "src is a's bound address" a.T.Backend.local_addr src
   | None -> assert false);
  a.T.Backend.close ();
  b.T.Backend.close ()

(* Ephemeral binds never share a port: the kernel must hand each
   127.0.0.1:0 socket its own, or two members of one process would send
   to themselves. With SO_REUSEADDR set, 64 such sockets collided about
   once in 15 tries, so the check runs 32 rounds of 64. *)
let udp_ephemeral_ports_distinct () =
  for round = 1 to 32 do
    let socks = List.init 64 (fun _ -> T.Udp.create ~bind:"127.0.0.1:0" ()) in
    let addrs =
      List.sort_uniq compare (List.map (fun (b : T.Backend.t) -> b.T.Backend.local_addr) socks)
    in
    List.iter (fun (b : T.Backend.t) -> b.T.Backend.close ()) socks;
    Alcotest.(check int) (Printf.sprintf "round %d: 64 sockets, 64 ports" round) 64
      (List.length addrs)
  done

(* Two UDP-attached endpoints in one process: the full stack reaches
   view agreement and delivers a totally-ordered stream over the real
   kernel. *)
let udp_full_stack () =
  let world = World.create () in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let backends = List.init 2 (fun _ -> T.Udp.create ~bind:"127.0.0.1:0" ()) in
  List.iteri
    (fun r (b : T.Backend.t) -> T.Peers.add peers ~rank:r ~addr:b.T.Backend.local_addr)
    backends;
  let eps =
    List.mapi (fun r backend -> Transport_link.endpoint link ~backend ~peers ~rank:r ~spec)
      backends
  in
  let g = World.fresh_group_addr world in
  let a = Group.join (List.nth eps 0) g in
  let b = Group.join ~contact:(Group.addr a) (List.nth eps 1) g in
  let driver = T.Driver.create (World.engine world) backends in
  let formed =
    T.Driver.run_until ~timeout:15.0 driver (fun () ->
        match (Group.view a, Group.view b) with
        | Some va, Some vb -> View.size va = 2 && View.size vb = 2
        | _ -> false)
  in
  Alcotest.(check bool) "view agreement over UDP" true formed;
  let casts = 100 in
  for k = 0 to casts - 1 do
    World.after world ~delay:(0.001 *. float_of_int (k + 1)) (fun () ->
        Group.cast a (I.payload ~tag:'o' ~origin:0 ~k ()))
  done;
  let complete =
    T.Driver.run_until ~timeout:15.0 driver (fun () ->
        List.length (Group.casts a) >= casts && List.length (Group.casts b) >= casts)
  in
  Alcotest.(check bool) "all delivered" true complete;
  Alcotest.(check (list string)) "identical order" (Group.casts a) (Group.casts b);
  List.iter (fun (bk : T.Backend.t) -> bk.T.Backend.close ()) backends

(* Batched UDP: sends staged through sendmmsg (auto-flushing at the
   batch boundary, driver-flushed below it), receives drained through
   recvmmsg into the reused rx ring. Where the mmsg stubs are
   unsupported the backend falls back to scalar syscalls — the test
   asserts delivery either way and the syscall economy only when the
   batched path actually ran. *)
let udp_batched_roundtrip () =
  let engine = Horus_sim.Engine.create () in
  let a = T.Udp.create ~batch:32 ~bind:"127.0.0.1:0" () in
  let b = T.Udp.create ~batch:32 ~bind:"127.0.0.1:0" () in
  let driver = T.Driver.create engine [ a; b ] in
  let got = ref [] in
  b.T.Backend.set_rx (fun ~src:_ frame -> got := Bytes.to_string frame :: !got);
  let sends = 50 in
  for i = 0 to sends - 1 do
    a.T.Backend.send ~dest:b.T.Backend.local_addr
      (Bytes.of_string (Printf.sprintf "batched-%02d" i))
  done;
  (* 32 left on the full-batch auto-flush; the driver's pump flushes
     the staged remainder. *)
  Alcotest.(check bool) "all frames arrive" true
    (T.Driver.run_until ~timeout:5.0 driver (fun () -> List.length !got >= sends));
  Alcotest.(check (list string)) "payloads intact, in order"
    (List.init sends (fun i -> Printf.sprintf "batched-%02d" i))
    (List.rev !got);
  Alcotest.(check int) "sent counted" sends a.T.Backend.stats.T.Backend.sent;
  if T.Sysops.mmsg_available () then begin
    match (a.T.Backend.batch, b.T.Backend.batch) with
    | Some tx, Some rx ->
      Alcotest.(check bool) "fewer tx syscalls than sends" true
        (tx.T.Backend.bt_tx_syscalls < sends && tx.T.Backend.bt_tx_syscalls >= 2);
      Alcotest.(check bool) "rx drained in batches" true (rx.T.Backend.bt_rx_syscalls >= 1)
    | _ -> Alcotest.fail "batch=32 backend lost its batch state"
  end;
  a.T.Backend.close ();
  b.T.Backend.close ()

exception Watchdog

(* Run [f], failing the test instead of hanging it if [f] is still
   running after [secs] seconds. *)
let with_watchdog secs f =
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Watchdog)) in
  ignore (Unix.alarm secs);
  Fun.protect
    ~finally:(fun () ->
        ignore (Unix.alarm 0);
        Sys.set_signal Sys.sigalrm old)
    (fun () ->
       match f () with
       | r -> r
       | exception Watchdog -> Alcotest.failf "still running after %d s" secs)

(* An error other than would-block or ECONNREFUSED (here EBADF: the fd
   is closed behind the backend) is counted once and ends the drain,
   on the scalar and on the batched rx path alike. *)
let udp_error_ends_drain batch () =
  let b = T.Udp.create ~batch ~bind:"127.0.0.1:0" () in
  b.T.Backend.set_rx (fun ~src:_ _ -> Alcotest.fail "no datagram expected");
  Unix.close (Option.get b.T.Backend.fd);
  let errors0 = b.T.Backend.stats.T.Backend.send_errors in
  let drained = with_watchdog 5 (fun () -> b.T.Backend.poll ()) in
  Alcotest.(check int) "nothing drained" 0 drained;
  Alcotest.(check int) "counted once" (errors0 + 1) b.T.Backend.stats.T.Backend.send_errors;
  b.T.Backend.close ()

(* The socket speaks IPv4 only: a send to another family is a send
   error, never a raise, and a malformed address is a drop. *)
let udp_foreign_destinations () =
  let a = T.Udp.create ~bind:"127.0.0.1:0" () in
  let st = a.T.Backend.stats in
  a.T.Backend.send ~dest:"::1:9" (Bytes.of_string "v6");
  Alcotest.(check int) "IPv6 destination is a send error" 1 st.T.Backend.send_errors;
  a.T.Backend.send ~dest:"no-port" (Bytes.of_string "bad");
  Alcotest.(check int) "malformed destination is a drop" 1 st.T.Backend.dropped;
  a.T.Backend.close ()

(* Datagrams at both ends of the size range, on either rx path: an
   empty one arrives as 0 bytes (and a link counts it as a bad frame:
   too short to be one), a [max_datagram] one arrives intact, and each
   names its sender by the sender's bound address. *)
let udp_short_and_max batch () =
  let world = World.create () in
  let a = T.Udp.create ~batch ~bind:"127.0.0.1:0" () in
  let b = T.Udp.create ~batch ~bind:"127.0.0.1:0" () in
  let c = T.Udp.create ~batch ~bind:"127.0.0.1:0" () in
  let driver = T.Driver.create (World.engine world) [ a; b; c ] in
  let got = ref [] in
  b.T.Backend.set_rx (fun ~src bytes -> got := (src, bytes) :: !got);
  let link = Transport_link.create world in
  ignore (Transport_link.mux link ~backend:c ~peers:(T.Peers.create ()));
  let big = Bytes.init T.Udp.max_datagram (fun i -> Char.chr ((i * 7) land 0xff)) in
  a.T.Backend.send ~dest:b.T.Backend.local_addr Bytes.empty;
  a.T.Backend.send ~dest:b.T.Backend.local_addr big;
  a.T.Backend.send ~dest:c.T.Backend.local_addr Bytes.empty;
  Alcotest.(check bool) "both datagrams arrive" true
    (T.Driver.run_until ~timeout:5.0 driver (fun () -> List.length !got >= 2));
  (match List.sort (fun (_, x) (_, y) -> compare (Bytes.length x) (Bytes.length y)) !got with
   | [ (src0, empty); (src1, whole) ] ->
     Alcotest.(check int) "empty datagram is 0 bytes" 0 (Bytes.length empty);
     Alcotest.(check bool) "max datagram intact" true (Bytes.equal whole big);
     Alcotest.(check string) "src of the empty one" a.T.Backend.local_addr src0;
     Alcotest.(check string) "src of the max one" a.T.Backend.local_addr src1
   | l -> Alcotest.failf "expected 2 datagrams, got %d" (List.length l));
  Alcotest.(check bool) "link counts the empty one as a bad frame" true
    (T.Driver.run_until ~timeout:5.0 driver (fun () ->
         c.T.Backend.stats.T.Backend.bad_frame = 1));
  (match T.Frame.decode Bytes.empty with
   | Error (T.Frame.Too_short 0) -> ()
   | _ -> Alcotest.fail "an empty datagram must decode as Too_short 0");
  List.iter (fun (bk : T.Backend.t) -> bk.T.Backend.close ()) [ a; b; c ]

let () =
  Alcotest.run "transport"
    ([ ( "frame",
         [ QCheck_alcotest.to_alcotest prop_frame_roundtrip;
           QCheck_alcotest.to_alcotest prop_frame_truncation;
           QCheck_alcotest.to_alcotest prop_frame_corruption;
           QCheck_alcotest.to_alcotest prop_frame_decode_view_equiv;
           QCheck_alcotest.to_alcotest prop_frame_fuzz;
           QCheck_alcotest.to_alcotest prop_crc32_reference;
           Alcotest.test_case "golden wire bytes" `Quick frame_golden;
           Alcotest.test_case "zero-length payload" `Quick frame_zero_length;
           Alcotest.test_case "every single-bit flip rejected" `Quick frame_every_bit_flip;
           Alcotest.test_case "max payload fills a datagram" `Quick frame_max_payload;
           Alcotest.test_case "declared length must match" `Quick frame_length_mismatch;
           Alcotest.test_case "wrong version rejected" `Quick frame_version;
           Alcotest.test_case "bad magic rejected" `Quick frame_magic;
           Alcotest.test_case "crc32 check value" `Quick crc_check_value ] );
       ( "crc",
         [ Alcotest.test_case "both paths: lengths, offsets, inits" `Quick crc_sweep;
           Alcotest.test_case "kernel used where the CPU has it" `Quick
             crc_kernel_where_supported ] );
       ("peers", [ Alcotest.test_case "parse and canonical form" `Quick peers_parse ]);
       ( "loopback",
         [ Alcotest.test_case "raw datagrams and stats" `Quick loopback_raw;
           Alcotest.test_case "early frames queue until set_rx" `Quick loopback_early_rx;
           Alcotest.test_case "early-frame queue is bounded" `Quick loopback_pending_bounded;
           Alcotest.test_case "full stack: 1000 ordered casts" `Slow loopback_full_stack;
           Alcotest.test_case "snapshot deterministic" `Quick loopback_deterministic;
           Alcotest.test_case "bad-frame injection" `Quick bad_frame_injection;
           Alcotest.test_case "dedicated-socket gid demux" `Quick dedicated_socket_demux ] );
       ( "driver",
         [ Alcotest.test_case "fires engine timers on the wall clock" `Quick
             driver_fires_timers;
           Alcotest.test_case "sleep clamp" `Quick driver_sleep_for;
           Alcotest.test_case "socket recvfrom_timeout" `Quick socket_recvfrom_timeout ] )
     ]
     @
     if udp_enabled then
       [ ( "udp",
           [ Alcotest.test_case "raw socket round-trip" `Quick udp_raw_roundtrip;
             Alcotest.test_case "port-0 binds get distinct ports" `Quick
               udp_ephemeral_ports_distinct;
             Alcotest.test_case "batched sendmmsg/recvmmsg round-trip" `Quick
               udp_batched_roundtrip;
             Alcotest.test_case "error ends the drain, scalar" `Quick (udp_error_ends_drain 0);
             Alcotest.test_case "error ends the drain, batched" `Quick (udp_error_ends_drain 32);
             Alcotest.test_case "non-IPv4 and malformed destinations" `Quick
               udp_foreign_destinations;
             Alcotest.test_case "empty and max datagrams, scalar" `Quick (udp_short_and_max 0);
             Alcotest.test_case "empty and max datagrams, batched" `Quick
               (udp_short_and_max 32);
             Alcotest.test_case "full stack over real UDP" `Slow udp_full_stack ] ) ]
     else [])
