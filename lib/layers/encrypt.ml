(* ENCRYPT: private communication (Figure 1's "encryption" type).

   XOR keystream derived from a shared group key and a per-message
   nonce; the nonce travels in the header. The keystream generator is
   splitmix64 — again a protocol-shaped stand-in, not real crypto (see
   DESIGN.md). Key distribution is by configuration parameter; all
   members of a group must be configured with the same key. *)

open Horus_msg
open Horus_hcpi

type state = {
  env : Layer.env;
  key_hash : int;
  mutable nonce : int;
  mutable encrypted : int;
  mutable decrypted : int;
}

(* The keystream is salted with the sender's endpoint id so that two
   senders using the same nonce counter never share a stream. The
   sender id is recovered on the way up from COM's src_eid meta. *)
let keystream_xor t ~nonce ~src b =
  let prng =
    Horus_util.Prng.create (t.key_hash lxor (nonce * 0x9E3779B9) lxor (src * 0x85EBCA6B))
  in
  let out = Bytes.copy b in
  let n = Bytes.length out in
  for i = 0 to n - 1 do
    Bytes.set out i
      (Char.chr (Char.code (Bytes.get out i) lxor Horus_util.Prng.int prng 256))
  done;
  out

let create params env =
  let key = Params.get_string params "key" ~default:"horus-group-key" in
  let t =
    { env;
      key_hash = Int64.to_int (Horus_util.Crc.checksum_string key);
      nonce = 0;
      encrypted = 0;
      decrypted = 0 }
  in
  let handle_down (ev : Event.down) =
    (match ev with
     | Event.D_cast m | Event.D_send (_, m) ->
       t.nonce <- t.nonce + 1;
       t.encrypted <- t.encrypted + 1;
       let src = Addr.endpoint_id env.Layer.endpoint in
       Msg.replace m (keystream_xor t ~nonce:t.nonce ~src (Msg.to_bytes m));
       Msg.push_u32 m t.nonce
     | _ -> ());
    env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (_, m, meta) | Event.U_send (_, m, meta) ->
      (try
         let nonce = Msg.pop_u32 m in
         let src = Option.value (Event.meta_find meta Com.src_meta) ~default:0 in
         Msg.replace m (keystream_xor t ~nonce ~src (Msg.to_bytes m));
         t.decrypted <- t.decrypted + 1;
         env.Layer.emit_up ev
       with Msg.Truncated _ -> env.Layer.reject ())
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "ENCRYPT";
    handle_down;
    handle_up;
    dump = (fun () -> [ Printf.sprintf "encrypted=%d decrypted=%d" t.encrypted t.decrypted ]);
    inert = false;
    stop = (fun () -> ()) }
