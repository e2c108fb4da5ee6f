(* DEADLINE: real-time delivery bounds (Figure 1's "real-time" type).

   Each cast is stamped with its (simulated) send time; a receiver
   whose copy is older than the configured budget drops it and raises
   LOST_MESSAGE — stale data is worse than no data for real-time
   consumers (sensor readings, position updates). Fresh copies are
   tagged with their measured age in microseconds ("age_us" meta), so
   the application can see how much of its budget was spent in
   transit. *)

open Horus_msg
open Horus_hcpi

type state = {
  env : Layer.env;
  budget : float;
  mutable delivered_fresh : int;
  mutable dropped_stale : int;
}

let create params env =
  let t =
    { env;
      budget = Params.get_float params "budget" ~default:0.05;
      delivered_fresh = 0;
      dropped_stale = 0 }
  in
  let now () = Horus_sim.Engine.now env.Layer.engine in
  let handle_down (ev : Event.down) =
    match ev with
    | Event.D_cast m ->
      Msg.push_i64 m (Int64.bits_of_float (now ()));
      env.Layer.emit_down (Event.D_cast m)
    | _ -> env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (rank, m, meta) ->
      let sent = Int64.float_of_bits (Msg.pop_i64 m) in
      let age = now () -. sent in
      if age > t.budget then begin
        t.dropped_stale <- t.dropped_stale + 1;
        env.Layer.emit_up (Event.U_lost_message rank)
      end
      else begin
        t.delivered_fresh <- t.delivered_fresh + 1;
        let age_us = int_of_float (age *. 1e6) in
        env.Layer.emit_up (Event.U_cast (rank, m, ("age_us", age_us) :: meta))
      end
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "DEADLINE";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "budget=%.3fs fresh=%d stale=%d" t.budget t.delivered_fresh
             t.dropped_stale ]);
    inert = false;
    stop = (fun () -> ()) }
