(* SIGN: cryptographic-checksum layer (Section 2).

   Like CHKSUM, but the digest is keyed, "making it impossible for a
   malignant intruder to impersonate a member process". The MAC is a
   keyed FNV sandwich — a stand-in with the right protocol behaviour,
   not a real cryptographic primitive (see DESIGN.md). *)

open Horus_msg
open Horus_hcpi

type state = {
  env : Layer.env;
  key : string;
  mutable passed : int;
  mutable forged : int;
}

let mac t m =
  let b = Msg.to_bytes m in
  Horus_util.Crc.mac ~key:t.key b ~off:0 ~len:(Bytes.length b)

let create params env =
  let t =
    { env;
      key = Params.get_string params "key" ~default:"horus-group-key";
      passed = 0;
      forged = 0 }
  in
  let handle_down (ev : Event.down) =
    (match ev with
     | Event.D_cast m | Event.D_send (_, m) -> Msg.push_i64 m (mac t m)
     | _ -> ());
    env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (_, m, _) | Event.U_send (_, m, _) ->
      let ok =
        try
          let declared = Msg.pop_i64 m in
          Int64.equal declared (mac t m)
        with Msg.Truncated _ -> false
      in
      if ok then begin
        t.passed <- t.passed + 1;
        env.Layer.emit_up ev
      end
      else begin
        t.forged <- t.forged + 1;
        env.Layer.reject ()
      end
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "SIGN";
    handle_down;
    handle_up;
    dump = (fun () -> [ Printf.sprintf "passed=%d forged=%d" t.passed t.forged ]);
    inert = false;
    stop = (fun () -> ()) }
