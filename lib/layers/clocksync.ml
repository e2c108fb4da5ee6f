(* CLOCKSYNC: clock synchronization (Figure 1's "synchronization"
   type), by Cristian's algorithm.

   Each endpoint has a local clock — the simulated time plus a
   configured skew. Non-coordinator members periodically ping the
   coordinator with their local send time; the coordinator echoes with
   its own clock reading; the requester estimates the offset between
   the clocks as (server_time + rtt/2 - local_receive_time) and applies
   it, converging to the coordinator's clock within half a round trip.

   [local_time] is exposed through the focus/dump interface and tagged
   onto deliveries via the "clock_ms" meta hook, so layers above (e.g.
   DEADLINE) can use synchronized time. *)

open Horus_msg
open Horus_hcpi

let k_ping = 0
let k_echo = 1
let k_app_send = 2

type state = {
  env : Layer.env;
  skew : float;               (* configured true skew of this node's clock *)
  period : float;
  mutable view : View.t option;
  mutable my_rank : int;
  mutable offset : float;     (* correction added to the local clock *)
  mutable samples : int;
  mutable stop_timer : unit -> unit;
}

(* The raw (unsynchronized) local clock. *)
let raw_clock t = Horus_sim.Engine.now t.env.Layer.engine +. t.skew

(* The synchronized clock. *)
let local_time t = raw_clock t +. t.offset

let coordinator t =
  match t.view with
  | Some v when View.size v > 0 -> Some (View.nth v 0)
  | Some _ | None -> None

let ping t =
  match coordinator t with
  | Some c when t.my_rank > 0 ->
    let m = Msg.empty () in
    Msg.push_i64 m (Int64.bits_of_float (raw_clock t));
    Msg.push_u8 m k_ping;
    t.env.Layer.emit_down (Event.D_send ([ c ], m))
  | Some _ | None -> ()

let create params env =
  let t =
    { env;
      skew = Params.get_float params "skew" ~default:0.0;
      period = Params.get_float params "period" ~default:0.1;
      view = None;
      my_rank = -1;
      offset = 0.0;
      samples = 0;
      stop_timer = (fun () -> ()) }
  in
  t.stop_timer <- Layer.every env ~period:t.period (fun () -> ping t);
  let handle_down (ev : Event.down) =
    match ev with
    | Event.D_send (dsts, m) ->
      Msg.push_u8 m k_app_send;
      env.Layer.emit_down (Event.D_send (dsts, m))
    | _ -> env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_send (rank, m, meta) ->
      let kind = Msg.pop_u8 m in
      if kind = k_app_send then env.Layer.emit_up (Event.U_send (rank, m, meta))
      else if kind = k_ping then begin
        (* Echo: requester's send time + our clock. *)
        let their_send = Msg.pop_i64 m in
        match (t.view, rank) with
        | Some v, r when r >= 0 ->
          let reply = Msg.empty () in
          Msg.push_i64 reply (Int64.bits_of_float (local_time t));
          Msg.push_i64 reply their_send;
          Msg.push_u8 reply k_echo;
          env.Layer.emit_down (Event.D_send ([ View.nth v r ], reply))
        | _ -> ()
      end
      else if kind = k_echo then begin
        let my_send = Int64.float_of_bits (Msg.pop_i64 m) in
        let server_time = Int64.float_of_bits (Msg.pop_i64 m) in
        let now_raw = raw_clock t in
        let rtt = now_raw -. my_send in
        if rtt >= 0.0 then begin
          (* Cristian: the server clock read happened ~rtt/2 ago. *)
          let estimate = server_time +. (rtt /. 2.0) -. now_raw in
          t.offset <- estimate;
          t.samples <- t.samples + 1
        end
      end
      else env.Layer.reject ()
    | Event.U_view v ->
      t.view <- Some v;
      t.my_rank <- Option.value (View.rank_of v env.Layer.endpoint) ~default:(-1);
      env.Layer.emit_up ev
    | Event.U_cast (rank, m, meta) ->
      (* Tag deliveries with the synchronized clock, milliseconds. *)
      let stamp = int_of_float (local_time t *. 1000.0) in
      env.Layer.emit_up (Event.U_cast (rank, m, ("clock_ms", stamp) :: meta))
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "CLOCKSYNC";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "skew=%+.4f offset=%+.4f local_time=%.4f samples=%d" t.skew t.offset
             (local_time t) t.samples ]);
    inert = false;
    stop = (fun () -> t.stop_timer ()) }
