(* BATCH: message batching.

   Casts issued within a short window travel as one wire message and
   are unbatched at the receiver — trading a bounded latency increase
   for fewer packets and fewer per-message header overheads below.
   This is the kind of cross-cutting optimization the composition
   framework makes a one-line stack change instead of a protocol
   rewrite; the E7 bench quantifies the packet savings.

   Batches flush when [max_batch] messages or [max_bytes] bytes are
   pending, when the window timer fires, or at a view change (no
   cross-view batches). Order within and across batches is preserved. *)

open Horus_msg
open Horus_hcpi

type state = {
  env : Layer.env;
  window : float;
  max_batch : int;
  max_bytes : int;
  mutable pending : string list;  (* newest first *)
  mutable pending_bytes : int;
  mutable timer_armed : bool;
  mutable batches_sent : int;
  mutable messages_batched : int;
}

let flush t =
  t.timer_armed <- false;
  match t.pending with
  | [] -> ()
  | msgs ->
    let msgs = List.rev msgs in
    t.pending <- [];
    t.pending_bytes <- 0;
    t.batches_sent <- t.batches_sent + 1;
    t.messages_batched <- t.messages_batched + List.length msgs;
    let m = Msg.empty () in
    Wire.push_list (fun m s -> Msg.push_string m s) m msgs;
    t.env.Layer.emit_down (Event.D_cast m)

let submit t payload =
  t.pending <- payload :: t.pending;
  t.pending_bytes <- t.pending_bytes + String.length payload;
  if List.length t.pending >= t.max_batch || t.pending_bytes >= t.max_bytes then flush t
  else if not t.timer_armed then begin
    t.timer_armed <- true;
    ignore (t.env.Layer.set_timer ~delay:t.window (fun () -> flush t))
  end

let create params env =
  let t =
    { env;
      window = Params.get_float params "window" ~default:0.005;
      max_batch = Params.get_int params "max_batch" ~default:16;
      max_bytes = Params.get_int params "max_bytes" ~default:8192;
      pending = [];
      pending_bytes = 0;
      timer_armed = false;
      batches_sent = 0;
      messages_batched = 0 }
  in
  let handle_down (ev : Event.down) =
    match ev with
    | Event.D_cast m -> submit t (Msg.to_string m)
    | Event.D_view _ ->
      (* No batch may straddle a view change. *)
      flush t;
      env.Layer.emit_down ev
    | _ -> env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (rank, m, meta) ->
      let msgs = Wire.pop_list (fun m -> Msg.pop_string m) m in
      List.iter
        (fun payload -> env.Layer.emit_up (Event.U_cast (rank, Msg.create payload, meta)))
        msgs
    | Event.U_view _ ->
      flush t;
      env.Layer.emit_up ev
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "BATCH";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "batches=%d messages=%d pending=%d" t.batches_sent
             t.messages_batched (List.length t.pending) ]);
    inert = false;
    stop = (fun () -> ()) }
