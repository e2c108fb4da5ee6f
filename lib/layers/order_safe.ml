(* ORDER(safe): safe delivery — a message surfaces only once the
   stability information from below (P14: a STABLE or PINWHEEL layer)
   shows that *every* view member has received it. Until then it is
   held. The layer issues the receipt acks itself, so the stability
   layer below should run with auto_ack=false when the application
   wants end-to-end processing semantics on top; with the default
   receipt semantics both work.

   At a view change, virtual synchrony guarantees all held messages
   reached every survivor, so they are released (in origin/sequence
   order) before the new view surfaces. *)

open Horus_msg
open Horus_hcpi

type held = {
  h_id : int;  (* stability id from below *)
  h_rank : int;
  h_msg : Msg.t;
  h_meta : Event.meta;
}

type state = {
  env : Layer.env;
  mutable members : int;
  mutable held : held list;  (* arrival order, newest first *)
  mutable delivered_safe : int;
}

let release t h =
  t.delivered_safe <- t.delivered_safe + 1;
  t.env.Layer.emit_up (Event.U_cast (h.h_rank, h.h_msg, h.h_meta))

(* A message is safe when every member's ack count for its origin
   exceeds its sequence number. *)
let is_safe (stab : Event.stability) h =
  let origin, seq = Stable.split_id h.h_id in
  origin < Array.length stab.Event.acked
  && Array.for_all (fun acked -> acked > seq) stab.Event.acked.(origin)

let on_stability t stab =
  let ready, waiting = List.partition (is_safe stab) (List.rev t.held) in
  t.held <- List.rev waiting;
  let ordered = List.sort (fun a b -> Int.compare a.h_id b.h_id) ready in
  List.iter (release t) ordered

let create (_ : Params.t) env =
  let t = { env; members = 0; held = []; delivered_safe = 0 } in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (rank, m, meta) ->
      (match Event.meta_find meta Stable.meta_key with
       | Some id ->
         (* Receipt ack toward the stability layer below. *)
         env.Layer.emit_down (Event.D_ack id);
         t.held <- { h_id = id; h_rank = rank; h_msg = m; h_meta = meta } :: t.held
       | None ->
         (* No stability layer below (mis-stacked); fail open rather
            than silently holding forever. *)
         env.Layer.emit_up ev)
    | Event.U_stable stab ->
      on_stability t stab;
      env.Layer.emit_up ev
    | Event.U_view v ->
      (* Virtual synchrony: everything held is at all survivors. *)
      let ordered = List.sort (fun a b -> Int.compare a.h_id b.h_id) (List.rev t.held) in
      t.held <- [];
      List.iter (release t) ordered;
      t.members <- View.size v;
      env.Layer.emit_up ev
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "ORDER_SAFE";
    handle_down = env.Layer.emit_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "held=%d delivered_safe=%d" (List.length t.held) t.delivered_safe ]);
    inert = false;
    stop = (fun () -> ()) }
