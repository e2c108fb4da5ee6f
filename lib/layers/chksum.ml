(* CHKSUM: checksumming layer (Section 2's first example).

   Going down, pushes an FNV-1a checksum over the message as it stands
   (payload plus any headers of layers above). Coming up, verifies and
   drops garbled messages, counted as rejections, reducing garbling
   "to a statistically insignificant rate". *)

open Horus_msg
open Horus_hcpi

type state = {
  env : Layer.env;
  mutable passed : int;
}

let sum m =
  let b = Msg.to_bytes m in
  Horus_util.Crc.checksum b ~off:0 ~len:(Bytes.length b)

let protect m = Msg.push_i64 m (sum m)

(* A short message fails like a garbled one: both are counted as
   rejections and dropped. *)
let verify t m =
  let ok =
    try
      let declared = Msg.pop_i64 m in
      Int64.equal declared (sum m)
    with Msg.Truncated _ -> false
  in
  if not ok then t.env.Layer.reject ();
  ok

let create (_ : Params.t) env =
  let t = { env; passed = 0 } in
  let handle_down (ev : Event.down) =
    (match ev with
     | Event.D_cast m | Event.D_send (_, m) -> protect m
     | _ -> ());
    env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (_, m, _) | Event.U_send (_, m, _) ->
      if verify t m then begin
        t.passed <- t.passed + 1;
        env.Layer.emit_up ev
      end
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "CHKSUM";
    handle_down;
    handle_up;
    dump = (fun () -> [ Printf.sprintf "passed=%d" t.passed ]);
    inert = false;
    stop = (fun () -> ()) }
