(* Tests for addresses, the message object and wire codecs. *)

open Horus_msg

(* --- Addr --- *)

let test_addr_basics () =
  let a = Addr.endpoint 3 and b = Addr.endpoint 5 in
  Alcotest.(check bool) "equal self" true (Addr.equal_endpoint a a);
  Alcotest.(check bool) "distinct" false (Addr.equal_endpoint a b);
  Alcotest.(check bool) "age order" true (Addr.compare_endpoint a b < 0);
  Alcotest.(check int) "id" 3 (Addr.endpoint_id a)

let test_addr_negative_rejected () =
  Alcotest.(check bool) "negative endpoint" true
    (try ignore (Addr.endpoint (-1)); false with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative group" true
    (try ignore (Addr.group (-1)); false with Invalid_argument _ -> true)

(* --- Msg push/pop --- *)

let test_msg_payload_roundtrip () =
  let m = Msg.create "hello" in
  Alcotest.(check string) "payload" "hello" (Msg.to_string m);
  Alcotest.(check int) "length" 5 (Msg.length m)

let test_msg_header_stack_order () =
  (* Headers pop in reverse push order, like a stack (Section 3). *)
  let m = Msg.create "data" in
  Msg.push_u8 m 1;
  Msg.push_u8 m 2;
  Msg.push_u8 m 3;
  Alcotest.(check int) "top" 3 (Msg.pop_u8 m);
  Alcotest.(check int) "middle" 2 (Msg.pop_u8 m);
  Alcotest.(check int) "bottom" 1 (Msg.pop_u8 m);
  Alcotest.(check string) "payload intact" "data" (Msg.to_string m)

let test_msg_typed_fields () =
  let m = Msg.create "" in
  Msg.push_i64 m (-123456789012345L);
  Msg.push_u32 m 0xDEADBE;
  Msg.push_u16 m 65535;
  Msg.push_u8 m 200;
  Msg.push_bool m true;
  Msg.push_string m "str";
  Alcotest.(check string) "string" "str" (Msg.pop_string m);
  Alcotest.(check bool) "bool" true (Msg.pop_bool m);
  Alcotest.(check int) "u8" 200 (Msg.pop_u8 m);
  Alcotest.(check int) "u16" 65535 (Msg.pop_u16 m);
  Alcotest.(check int) "u32" 0xDEADBE (Msg.pop_u32 m);
  Alcotest.(check int64) "i64" (-123456789012345L) (Msg.pop_i64 m)

let test_msg_headroom_growth () =
  (* Push far more than the initial headroom. *)
  let m = Msg.create ~headroom:2 "x" in
  for i = 0 to 99 do
    Msg.push_u32 m i
  done;
  for i = 99 downto 0 do
    Alcotest.(check int) "value" i (Msg.pop_u32 m)
  done;
  Alcotest.(check string) "payload" "x" (Msg.to_string m)

let test_msg_truncated_pop () =
  let m = Msg.create "ab" in
  Alcotest.(check bool) "truncated u32" true
    (try ignore (Msg.pop_u32 m); false with Msg.Truncated _ -> true)

let test_msg_copy_independent () =
  let m = Msg.create "payload" in
  Msg.push_u8 m 7;
  let c = Msg.copy m in
  ignore (Msg.pop_u8 c);
  Alcotest.(check int) "original keeps header" 8 (Msg.length m);
  Alcotest.(check int) "copy popped" 7 (Msg.length c)

(* Copying a message whose buffer runs past its live bytes (a
   truncated one) keeps exactly the live bytes plus the headroom before
   them — a position marked before pops still restores on the copy —
   and shares nothing with the original. *)
let test_msg_copy_truncated () =
  let m = Msg.create "0123456789" in
  Msg.push_u16 m 0xbeef;
  let off, _ = Msg.mark m in
  Msg.restore m (off, 8);
  let c = Msg.copy m in
  Alcotest.(check bool) "equal to the original" true (Msg.equal m c);
  Alcotest.(check int) "header" 0xbeef (Msg.pop_u16 c);
  Alcotest.(check string) "payload" "012345" (Msg.to_string c);
  Msg.restore c (off, 8);
  Alcotest.(check bool) "mark restores on the copy" true (Msg.equal m c);
  Msg.push_u32 c 7;
  Msg.append c (Bytes.of_string "tail");
  Msg.restore m (off, 12);
  Alcotest.(check string) "original untouched, slack included" "\xbe\xef0123456789"
    (Msg.to_string m);
  Msg.push_u8 m 1;
  Alcotest.(check int) "copy untouched" 7 (Msg.pop_u32 c);
  Alcotest.(check string) "copy payload" "\xbe\xef012345tail" (Msg.to_string c)

let test_msg_split_and_append () =
  let m = Msg.create "0123456789" in
  let buf, off, len = Msg.view m in
  let head = Msg.of_sub buf ~off ~len:6 in
  let tail = Msg.of_sub buf ~off:(off + 6) ~len:(len - 6) in
  Alcotest.(check string) "head" "012345" (Msg.to_string head);
  Alcotest.(check string) "tail" "6789" (Msg.to_string tail);
  Msg.append head (Msg.to_bytes tail);
  Alcotest.(check string) "rejoined" "0123456789" (Msg.to_string head);
  Alcotest.(check string) "concat" "0123456789" (Msg.to_string (Msg.concat [ Msg.create "012345"; tail ]));
  Alcotest.(check string) "source untouched" "0123456789" (Msg.to_string m)

let test_msg_of_sub () =
  let b = Bytes.of_string "abcdef" in
  let m = Msg.of_sub b ~off:2 ~len:3 in
  Alcotest.(check string) "slice" "cde" (Msg.to_string m);
  Bytes.set b 2 'X';
  Alcotest.(check string) "a copy, not a view" "cde" (Msg.to_string m);
  Msg.push_u8 m 0x41;
  Alcotest.(check string) "pushable" "Acde" (Msg.to_string m);
  Alcotest.(check string) "empty slice" "" (Msg.to_string (Msg.of_sub b ~off:6 ~len:0));
  List.iter
    (fun (off, len) ->
       Alcotest.check_raises (Printf.sprintf "range %d+%d rejected" off len)
         (Invalid_argument "Msg.of_sub")
         (fun () -> ignore (Msg.of_sub b ~off ~len)))
    [ (-1, 2); (0, -1); (4, 3); (7, 0) ]

let test_msg_of_bytes_pushable () =
  (* A received message must still accept pushes (retransmission). *)
  let m = Msg.of_bytes (Bytes.of_string "recv") in
  Msg.push_u16 m 42;
  Alcotest.(check int) "pushed onto received" 42 (Msg.pop_u16 m);
  Alcotest.(check string) "payload" "recv" (Msg.to_string m)

let prop_msg_u32_roundtrip =
  QCheck.Test.make ~name:"u32 push/pop roundtrip" ~count:500
    QCheck.(int_bound 0xFFFFFFF)
    (fun v ->
       let m = Msg.create "p" in
       Msg.push_u32 m v;
       Msg.pop_u32 m = v && Msg.to_string m = "p")

let prop_msg_string_roundtrip =
  QCheck.Test.make ~name:"string push/pop roundtrip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
       let m = Msg.create "payload" in
       Msg.push_string m s;
       Msg.pop_string m = s)

let prop_msg_mixed_stack =
  QCheck.Test.make ~name:"mixed header stack roundtrip" ~count:300
    QCheck.(list (pair (int_bound 2) (int_bound 0xFFFF)))
    (fun fields ->
       let m = Msg.create "body" in
       List.iter
         (fun (kind, v) ->
            match kind with
            | 0 -> Msg.push_u8 m (v land 0xFF)
            | 1 -> Msg.push_u16 m v
            | _ -> Msg.push_u32 m v)
         fields;
       let ok = ref true in
       List.iter
         (fun (kind, v) ->
            let got =
              match kind with
              | 0 -> Msg.pop_u8 m
              | 1 -> Msg.pop_u16 m
              | _ -> Msg.pop_u32 m
            in
            let want = if kind = 0 then v land 0xFF else v in
            if got <> want then ok := false)
         (List.rev fields);
       !ok && Msg.to_string m = "body")

(* --- Wire --- *)

let test_wire_endpoint_roundtrip () =
  let m = Msg.create "" in
  Wire.push_endpoint m (Addr.endpoint 77);
  Alcotest.(check int) "endpoint" 77 (Addr.endpoint_id (Wire.pop_endpoint m))

let test_wire_list_roundtrip () =
  let l = List.map Addr.endpoint [ 1; 5; 3; 9 ] in
  let m = Msg.create "" in
  Wire.push_endpoint_list m l;
  let got = Wire.pop_endpoint_list m in
  Alcotest.(check (list int)) "order preserved" [ 1; 5; 3; 9 ] (List.map Addr.endpoint_id got)

let test_wire_empty_list () =
  let m = Msg.create "" in
  Wire.push_endpoint_list m [];
  Alcotest.(check int) "empty" 0 (List.length (Wire.pop_endpoint_list m))

let prop_wire_int_list =
  QCheck.Test.make ~name:"int list roundtrip" ~count:300
    QCheck.(list_of_size Gen.(0 -- 50) (int_bound 0xFFFFFF))
    (fun l ->
       let m = Msg.create "" in
       Wire.push_int_list m l;
       Wire.pop_int_list m = l)

let () =
  Alcotest.run "msg"
    [ ( "addr",
        [ Alcotest.test_case "basics" `Quick test_addr_basics;
          Alcotest.test_case "negative rejected" `Quick test_addr_negative_rejected ] );
      ( "msg",
        [ Alcotest.test_case "payload roundtrip" `Quick test_msg_payload_roundtrip;
          Alcotest.test_case "header stack order" `Quick test_msg_header_stack_order;
          Alcotest.test_case "typed fields" `Quick test_msg_typed_fields;
          Alcotest.test_case "headroom growth" `Quick test_msg_headroom_growth;
          Alcotest.test_case "truncated pop" `Quick test_msg_truncated_pop;
          Alcotest.test_case "copy independent" `Quick test_msg_copy_independent;
          Alcotest.test_case "copy of a truncated message" `Quick test_msg_copy_truncated;
          Alcotest.test_case "split and append" `Quick test_msg_split_and_append;
          Alcotest.test_case "of_sub slice" `Quick test_msg_of_sub;
          Alcotest.test_case "received messages pushable" `Quick test_msg_of_bytes_pushable;
          QCheck_alcotest.to_alcotest prop_msg_u32_roundtrip;
          QCheck_alcotest.to_alcotest prop_msg_string_roundtrip;
          QCheck_alcotest.to_alcotest prop_msg_mixed_stack ] );
      ( "wire",
        [ Alcotest.test_case "endpoint roundtrip" `Quick test_wire_endpoint_roundtrip;
          Alcotest.test_case "list roundtrip" `Quick test_wire_list_roundtrip;
          Alcotest.test_case "empty list" `Quick test_wire_empty_list;
          QCheck_alcotest.to_alcotest prop_wire_int_list ] ) ]
