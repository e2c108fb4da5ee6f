(* RPC: client/server interactions over a group (Figure 1's "rpc"
   type).

   The x-kernel discussion in Section 12 notes that request-response is
   awkward to force into a pure layered interface; Horus instead builds
   it *over* the group abstraction. This module correlates requests and
   replies on top of a group handle's subset sends: a call addresses one
   member (by address), the serving side's handler produces the reply
   payload, and the reply is routed back to the caller's continuation.
   Calls that receive no reply within the timeout fail, so a crashed
   server shows up as [`Timeout] rather than a hang. *)

open Horus_msg

type outcome = [ `Reply of string | `Timeout ]

type t = {
  group : Group.t;
  world : World.t;
  mutable next_call : int;
  pending : (int, outcome -> unit) Hashtbl.t;
  handler : rank:int -> string -> string;
  mutable calls_made : int;
  mutable calls_served : int;
}

(* Frame: kind byte ('Q' request / 'P' reply), u32 call id, payload. *)
let frame ~kind ~id payload =
  let m = Msg.create payload in
  Msg.push_u32 m id;
  Msg.push_u8 m (Char.code kind);
  m

let parse m =
  let kind = Char.chr (Msg.pop_u8 m) in
  let id = Msg.pop_u32 m in
  (kind, id, Msg.to_string m)

let default_handler ~rank:_ _ = ""

(* [attach] takes over the group's upcall callback; [on_up] receives
   everything that is not RPC traffic (view changes, casts, non-RPC
   sends), so applications can keep their own event handling. *)
let attach ?(handler = default_handler) ?(on_up = fun (_ : Horus_hcpi.Event.up) -> ()) group =
  let world = Endpoint.world (Group.endpoint group) in
  let t =
    { group;
      world;
      next_call = 0;
      pending = Hashtbl.create 8;
      handler;
      calls_made = 0;
      calls_served = 0 }
  in
  Group.set_on_up group (fun ev ->
      match ev with
      | Horus_hcpi.Event.U_send (rank, m, meta) ->
        (try
           match parse (Msg.copy m) with
           | 'Q', id, payload ->
             t.calls_served <- t.calls_served + 1;
             let reply = t.handler ~rank payload in
             let src =
               Horus_hcpi.Event.meta_find meta "src_eid"
               |> Option.map Addr.endpoint
             in
             (match src with
              | Some caller -> Group.send_msg t.group [ caller ] (frame ~kind:'P' ~id reply)
              | None -> ())
           | 'P', id, payload ->
             (match Hashtbl.find_opt t.pending id with
              | Some k ->
                Hashtbl.remove t.pending id;
                k (`Reply payload)
              | None -> ())
           | _ -> on_up ev
         with Msg.Truncated _ -> on_up ev)
      | _ -> on_up ev);
  t

let call ?(timeout = 1.0) t ~server payload k =
  let id = t.next_call in
  t.next_call <- id + 1;
  t.calls_made <- t.calls_made + 1;
  Hashtbl.replace t.pending id k;
  Group.send_msg t.group [ server ] (frame ~kind:'Q' ~id payload);
  World.after t.world ~delay:timeout (fun () ->
      match Hashtbl.find_opt t.pending id with
      | Some k ->
        Hashtbl.remove t.pending id;
        k `Timeout
      | None -> ())

let group t = t.group

let stats t = (t.calls_made, t.calls_served)
