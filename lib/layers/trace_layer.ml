(* TRACE: tracing / statistics layer (Figure 1's "tracing" type).

   Counts every event crossing it, and its bytes, in both
   directions. Insert anywhere in a stack to observe the traffic at
   that level; the dump downcall reports the counters. *)

open Horus_hcpi

type state = {
  env : Layer.env;
  mutable down_events : int;
  mutable up_events : int;
  mutable down_bytes : int;
  mutable up_bytes : int;
}

let msg_bytes (ev : Event.down) =
  match ev with
  | Event.D_cast m | Event.D_send (_, m) -> Horus_msg.Msg.length m
  | _ -> 0

let up_msg_bytes (ev : Event.up) =
  match ev with
  | Event.U_cast (_, m, _) | Event.U_send (_, m, _) | Event.U_packet (_, m) ->
    Horus_msg.Msg.length m
  | _ -> 0

let create (_ : Params.t) env =
  let t =
    { env;
      down_events = 0;
      up_events = 0;
      down_bytes = 0;
      up_bytes = 0 }
  in
  let handle_down ev =
    t.down_events <- t.down_events + 1;
    t.down_bytes <- t.down_bytes + msg_bytes ev;
    t.env.Layer.emit_down ev
  in
  let handle_up ev =
    t.up_events <- t.up_events + 1;
    t.up_bytes <- t.up_bytes + up_msg_bytes ev;
    t.env.Layer.emit_up ev
  in
  { Layer.name = "TRACE";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "down_events=%d up_events=%d down_bytes=%d up_bytes=%d"
             t.down_events t.up_events t.down_bytes t.up_bytes ]);
    inert = false;
    stop = (fun () -> ()) }
