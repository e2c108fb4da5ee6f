(* NNAK: prioritized-effort delivery (Table 3's P2 provider).

   Each stack instance declares a priority (configuration parameter);
   outgoing data is tagged with it. On the receiving side, arrivals are
   batched over a short window and released highest-priority-first, so
   that control-plane endpoints overtake bulk endpoints under load. No
   reliability is added — this is prioritized *effort*. *)

open Horus_msg
open Horus_hcpi

type held = {
  h_prio : int;
  h_order : int;  (* arrival order, for stable sorting within a priority *)
  h_event : Event.up;
}

type state = {
  env : Layer.env;
  priority : int;
  window : float;
  mutable held : held list;
  mutable arrivals : int;
  mutable flush_armed : bool;
  mutable reordered : int;
}

let flush t =
  t.flush_armed <- false;
  let batch =
    List.sort
      (fun a b ->
         let c = Int.compare b.h_prio a.h_prio in  (* higher priority first *)
         if c <> 0 then c else Int.compare a.h_order b.h_order)
      (List.rev t.held)
  in
  t.held <- [];
  (* Count how many deliveries overtook an earlier arrival. *)
  List.iteri
    (fun i h -> if h.h_order <> i then t.reordered <- t.reordered + 1)
    batch;
  List.iter (fun h -> t.env.Layer.emit_up h.h_event) batch

let hold t ~prio ev =
  t.arrivals <- t.arrivals + 1;
  (* order is position within the current batch *)
  t.held <- { h_prio = prio; h_order = List.length t.held; h_event = ev } :: t.held;
  if not t.flush_armed then begin
    t.flush_armed <- true;
    ignore (t.env.Layer.set_timer ~delay:t.window (fun () -> flush t))
  end

let create params env =
  let t =
    { env;
      priority = Params.get_int params "priority" ~default:0;
      window = Params.get_float params "window" ~default:0.002;
      held = [];
      arrivals = 0;
      flush_armed = false;
      reordered = 0 }
  in
  let handle_down (ev : Event.down) =
    (match ev with
     | Event.D_cast m | Event.D_send (_, m) -> Msg.push_u8 m t.priority
     | _ -> ());
    env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (rank, m, meta) ->
      let prio = Msg.pop_u8 m in
      hold t ~prio (Event.U_cast (rank, m, meta))
    | Event.U_send (rank, m, meta) ->
      let prio = Msg.pop_u8 m in
      hold t ~prio (Event.U_send (rank, m, meta))
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "NNAK";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "priority=%d held=%d reordered=%d" t.priority (List.length t.held)
             t.reordered ]);
    inert = false;
    stop = (fun () -> ()) }
