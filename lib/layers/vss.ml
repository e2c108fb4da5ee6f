(* VSS: virtual synchrony service — the decentralized alternative to
   the FLUSH layer (Table 3 lists both as P9 providers).

   Where FLUSH funnels recovery through the flush coordinator (two
   hops, O(n) messages), VSS has every survivor exchange its unstable
   state with every other survivor directly: one round, O(n^2)
   messages. Each member releases the application's flush_ok toward the
   membership layer once it has heard from every survivor — at which
   point it provably holds every message any survivor delivered. The
   ablation bench compares the two strategies (experiment E12). *)

open Horus_msg
open Horus_hcpi

let k_data = 0
let k_state = 1
let k_app_send = 2

module ESet = Addr.Endpoint_set

type exchange = {
  ex_failed : Addr.endpoint list;
  mutable ex_waiting : ESet.t;
  mutable ex_ok_from_above : bool;
}

type state = {
  env : Layer.env;
  mutable view : View.t option;
  mutable next_seq : int;
  log : Delivery_log.t;
  mutable exchange : exchange option;
  mutable early_states : (Addr.endpoint list * int) list;  (* failed set, src *)
  mutable exchanges_run : int;
  mutable ctl_sent : int;
}

let me t = t.env.Layer.endpoint

let my_eid t = Addr.endpoint_id (me t)

let rank_of_origin t origin =
  match t.view with
  | None -> -1
  | Some v -> Option.value (View.rank_of v (Addr.endpoint origin)) ~default:(-1)

let accept_data t ~origin ~seq ~rank m meta =
  let rank = if rank >= 0 then rank else rank_of_origin t origin in
  Delivery_log.accept t.log ~origin ~seq ~rank m meta

let push_copies = Delivery_log.push_copies
let pop_copies = Delivery_log.pop_copies

let maybe_release t =
  match t.exchange with
  | Some ex when ex.ex_ok_from_above && ESet.is_empty ex.ex_waiting ->
    t.exchange <- None;
    t.env.Layer.emit_down Event.D_flush_ok
  | Some _ | None -> ()

let same_failed a b =
  List.length a = List.length b && List.for_all (fun x -> List.exists (Addr.equal_endpoint x) b) a

let start_exchange t failed =
  match t.view with
  | None -> ()
  | Some v ->
    t.exchanges_run <- t.exchanges_run + 1;
    let is_failed e = List.exists (Addr.equal_endpoint e) failed in
    let survivors = List.filter (fun m -> not (is_failed m)) (View.members v) in
    let ex = { ex_failed = failed; ex_waiting = ESet.of_list survivors; ex_ok_from_above = false } in
    t.exchange <- Some ex;
    let early = t.early_states in
    t.early_states <- [];
    List.iter
      (fun (efailed, src) ->
         if same_failed efailed failed then
           ex.ex_waiting <- ESet.remove (Addr.endpoint src) ex.ex_waiting)
      early;
    let copies = Delivery_log.copies t.log in
    List.iter
      (fun dst ->
         let m = Msg.empty () in
         push_copies m copies;
         Wire.push_endpoint_list m failed;
         Msg.push_u8 m k_state;
         t.ctl_sent <- t.ctl_sent + 1;
         t.env.Layer.emit_down (Event.D_send ([ dst ], m)))
      survivors

let create (_ : Params.t) env =
  let t =
    { env;
      view = None;
      next_seq = 0;
      log = Delivery_log.create ~emit_up:env.Layer.emit_up;
      exchange = None;
      early_states = [];
      exchanges_run = 0;
      ctl_sent = 0 }
  in
  let handle_down (ev : Event.down) =
    match ev with
    | Event.D_cast m ->
      Msg.push_u32 m t.next_seq;
      Delivery_log.record t.log ~origin:(my_eid t) ~seq:t.next_seq m;
      t.next_seq <- t.next_seq + 1;
      Msg.push_u8 m k_data;
      env.Layer.emit_down (Event.D_cast m)
    | Event.D_send (dsts, m) ->
      Msg.push_u8 m k_app_send;
      env.Layer.emit_down (Event.D_send (dsts, m))
    | Event.D_flush_ok ->
      (match t.exchange with
       | Some ex ->
         ex.ex_ok_from_above <- true;
         maybe_release t
       | None -> env.Layer.emit_down ev)
    | _ -> env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (rank, m, meta) | Event.U_send (rank, m, meta) ->
      (try
         let kind = Msg.pop_u8 m in
         if kind = k_data then begin
           let seq = Msg.pop_u32 m in
           let origin = Com.src_of meta in
           let straggler =
             match t.exchange with
             | Some ex -> List.exists (fun e -> Addr.endpoint_id e = origin) ex.ex_failed
             | None -> false
           in
           if straggler then env.Layer.trace ~category:"ignored" "straggler from failed member"
           else accept_data t ~origin ~seq ~rank m meta
         end
         else if kind = k_app_send then env.Layer.emit_up (Event.U_send (rank, m, meta))
         else if kind = k_state then begin
           let failed = Wire.pop_endpoint_list m in
           let copies = pop_copies m in
           List.iter
             (fun (o, s, p) ->
                accept_data t ~origin:o ~seq:s ~rank:(rank_of_origin t o) (Msg.create p) [])
             copies;
           match t.exchange with
           | Some ex when same_failed failed ex.ex_failed ->
             ex.ex_waiting <- ESet.remove (Addr.endpoint (Com.src_of meta)) ex.ex_waiting;
             maybe_release t
           | Some _ -> ()
           | None -> t.early_states <- (failed, Com.src_of meta) :: t.early_states
         end
         else env.Layer.trace ~category:"dropped" (Printf.sprintf "unknown kind %d" kind)
       with Msg.Truncated what -> env.Layer.trace ~category:"dropped" ("truncated " ^ what))
    | Event.U_flush failed ->
      start_exchange t failed;
      env.Layer.emit_up ev
    | Event.U_view v ->
      t.view <- Some v;
      t.next_seq <- 0;
      Delivery_log.reset t.log;
      t.exchange <- None;
      t.early_states <- [];
      env.Layer.emit_up ev
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "VSS";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "exchanges=%d logged=%d exchanging=%b ctl_sent=%d" t.exchanges_run
             (Delivery_log.size t.log) (t.exchange <> None) t.ctl_sent ]);
    inert = false;
    stop = (fun () -> ()) }
