(* COMPRESS: bandwidth-saving layer (Figure 1's "compression" type).

   Run-length encodes the message when that shrinks it; a one-byte
   header flag tells the receiving side which form arrived. *)

open Horus_msg
open Horus_hcpi

type state = {
  env : Layer.env;
  mutable compressed : int;
  mutable passed_through : int;
  mutable bytes_saved : int;
}

let create (_ : Params.t) env =
  let t = { env; compressed = 0; passed_through = 0; bytes_saved = 0 } in
  let handle_down (ev : Event.down) =
    (match ev with
     | Event.D_cast m | Event.D_send (_, m) ->
       let plain = Msg.to_bytes m in
       let packed = Rle.encode plain in
       if Bytes.length packed < Bytes.length plain then begin
         t.compressed <- t.compressed + 1;
         t.bytes_saved <- t.bytes_saved + (Bytes.length plain - Bytes.length packed);
         Msg.replace m packed;
         Msg.push_u8 m 1
       end
       else begin
         t.passed_through <- t.passed_through + 1;
         Msg.push_u8 m 0
       end
     | _ -> ());
    env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (_, m, _) | Event.U_send (_, m, _) ->
      (try
         let flag = Msg.pop_u8 m in
         if flag = 1 then Msg.replace m (Rle.decode (Msg.to_bytes m));
         env.Layer.emit_up ev
       with Msg.Truncated _ | Rle.Malformed -> env.Layer.reject ())
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "COMPRESS";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "compressed=%d passed_through=%d bytes_saved=%d" t.compressed
             t.passed_through t.bytes_saved ]);
    inert = false;
    stop = (fun () -> ()) }
