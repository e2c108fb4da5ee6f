(* ACCOUNT: usage accounting (Figure 1's "accounting" type).

   Tracks, per traffic source, how many messages and bytes crossed this
   layer in each direction. The dump downcall renders the ledger — the
   paper's "keeping track of usage" as a composable layer rather than
   code sprinkled through an application. *)

open Horus_msg
open Horus_hcpi

type ledger = {
  mutable l_msgs : int;
  mutable l_bytes : int;
}

type state = {
  env : Layer.env;
  sent : ledger;
  received : (int, ledger) Hashtbl.t;  (* src eid -> usage *)
}

let charge ledger bytes =
  ledger.l_msgs <- ledger.l_msgs + 1;
  ledger.l_bytes <- ledger.l_bytes + bytes

let create (_ : Params.t) env =
  let t = { env; sent = { l_msgs = 0; l_bytes = 0 }; received = Hashtbl.create 8 } in
  let ledger_for src =
    match Hashtbl.find_opt t.received src with
    | Some l -> l
    | None ->
      let l = { l_msgs = 0; l_bytes = 0 } in
      Hashtbl.replace t.received src l;
      l
  in
  let handle_down (ev : Event.down) =
    (match ev with
     | Event.D_cast m | Event.D_send (_, m) -> charge t.sent (Msg.length m)
     | _ -> ());
    env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    (match ev with
     | Event.U_cast (_, m, meta) | Event.U_send (_, m, meta) ->
       charge (ledger_for (Com.src_of meta)) (Msg.length m)
     | _ -> ());
    env.Layer.emit_up ev
  in
  { Layer.name = "ACCOUNT";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         Printf.sprintf "sent msgs=%d bytes=%d" t.sent.l_msgs t.sent.l_bytes
         :: (Hashtbl.fold (fun src l acc -> (src, l) :: acc) t.received []
             |> List.sort compare
             |> List.map (fun (src, l) ->
                 Printf.sprintf "from e%d: msgs=%d bytes=%d" src l.l_msgs l.l_bytes)));
    inert = false;
    stop = (fun () -> ()) }
