(* FLUSH: the unstable-message flush as its own microprotocol.

   Table 3 decomposes virtual synchrony: BMS provides consistent views
   and semi-synchrony (P8, P15) but forwards nothing at view changes;
   this layer, stacked above it, re-creates full virtual synchrony (P9)
   compositionally. It exploits the flush_ok handshake of the HCPI:
   when BMS raises the FLUSH upcall, this layer runs a coordinator-
   driven recovery round — members report receive vectors and unstable
   copies, the coordinator forwards what anyone misses — and only then
   releases the application's flush_ok downcall to BMS, which is what
   allows BMS to complete its own flush and install the view. Two
   layers, two protocols, one handshake: the LEGO thesis of the paper
   in action.

   Wire kinds: 0 data(seq), 1 state, 2 fwd, 3 done, 4 app send. *)

open Horus_msg
open Horus_hcpi

let k_data = 0
let k_state = 1
let k_fwd = 2
let k_done = 3
let k_app_send = 4

module ESet = Addr.Endpoint_set

type recovery = {
  rc_failed : Addr.endpoint list;
  rc_coord : Addr.endpoint;
  (* coordinator bookkeeping *)
  mutable rc_waiting : ESet.t;
  mutable rc_states : (int * (int * int) list * (int * int * string) list) list;
  (* member bookkeeping *)
  mutable rc_ok_from_above : bool;
  mutable rc_done : bool;
}

type state = {
  env : Layer.env;
  mutable view : View.t option;
  mutable next_seq : int;
  log : Delivery_log.t;
  mutable recovery : recovery option;
  (* states that arrived before our own FLUSH upcall started the round *)
  mutable early_states :
    (Addr.endpoint list * int * (int * int) list * (int * int * string) list) list;
  mutable recoveries_run : int;
  mutable ctl_sent : int;
}

let me t = t.env.Layer.endpoint

let my_eid t = Addr.endpoint_id (me t)

let unicast t dst m =
  t.ctl_sent <- t.ctl_sent + 1;
  t.env.Layer.emit_down (Event.D_send ([ dst ], m))

let rank_of_origin t origin =
  match t.view with
  | None -> -1
  | Some v -> Option.value (View.rank_of v (Addr.endpoint origin)) ~default:(-1)

let accept_data t ~origin ~seq ~rank m meta ev =
  let rank = if rank >= 0 then rank else rank_of_origin t origin in
  Delivery_log.accept t.log ~origin ~seq m (Delivery_log.cast_upcall ev ~rank m meta)

let vector t = Delivery_log.vector t.log

let push_pairs = Delivery_log.push_pairs
let pop_pairs = Delivery_log.pop_pairs
let push_copies = Delivery_log.push_copies
let pop_copies = Delivery_log.pop_copies

(* Release the held flush_ok toward BMS once both the application has
   agreed and the recovery round is complete. *)
let maybe_release t =
  match t.recovery with
  | Some rc when rc.rc_ok_from_above && rc.rc_done ->
    t.recovery <- None;
    t.env.Layer.emit_down Event.D_flush_ok
  | Some _ | None -> ()

let send_state t (rc : recovery) =
  let m = Msg.empty () in
  push_copies m (Delivery_log.copies t.log);
  push_pairs m (vector t);
  Wire.push_endpoint_list m rc.rc_failed;
  Msg.push_u8 m k_state;
  unicast t rc.rc_coord m

(* Coordinator: all states in — forward gaps, then signal DONE. *)
let complete_recovery t (rc : recovery) =
  let cut, everything =
    Delivery_log.cut_and_union ~own:t.log
      (List.map (fun (_, vec, copies) -> (vec, copies)) rc.rc_states)
  in
  List.iter
    (fun (replier, vec, _) ->
       let missing = Delivery_log.missing_for ~cut ~everything vec in
       if missing <> [] then begin
         let m = Msg.empty () in
         push_copies m missing;
         Msg.push_u8 m k_fwd;
         unicast t (Addr.endpoint replier) m
       end;
       let d = Msg.empty () in
       Wire.push_endpoint_list d rc.rc_failed;
       Msg.push_u8 d k_done;
       unicast t (Addr.endpoint replier) d)
    rc.rc_states

let same_failed a b =
  List.length a = List.length b && List.for_all (fun x -> List.exists (Addr.equal_endpoint x) b) a

let start_recovery t failed =
  match t.view with
  | None -> ()
  | Some v ->
    t.recoveries_run <- t.recoveries_run + 1;
    let is_failed e = List.exists (Addr.equal_endpoint e) failed in
    let survivors = List.filter (fun m -> not (is_failed m)) (View.members v) in
    (match survivors with
     | [] -> ()
     | coord :: _ ->
       let rc =
         { rc_failed = failed;
           rc_coord = coord;
           rc_waiting = ESet.of_list survivors;
           rc_states = [];
           rc_ok_from_above = false;
           rc_done = false }
       in
       t.recovery <- Some rc;
       send_state t rc;
       (* Replay any states that beat our own FLUSH upcall. *)
       let early = t.early_states in
       t.early_states <- [];
       List.iter
         (fun (efailed, src, vec, copies) ->
            if Addr.equal_endpoint rc.rc_coord (me t) && same_failed efailed rc.rc_failed
               && ESet.mem (Addr.endpoint src) rc.rc_waiting then begin
              rc.rc_waiting <- ESet.remove (Addr.endpoint src) rc.rc_waiting;
              rc.rc_states <- (src, vec, copies) :: rc.rc_states
            end)
         early;
       (match t.recovery with
        | Some rc when Addr.equal_endpoint rc.rc_coord (me t) && ESet.is_empty rc.rc_waiting ->
          complete_recovery t rc
        | Some _ | None -> ()))

let create (_ : Params.t) env =
  let t =
    { env;
      view = None;
      next_seq = 0;
      log = Delivery_log.create ~emit_up:env.Layer.emit_up;
      recovery = None;
      early_states = [];
      recoveries_run = 0;
      ctl_sent = 0 }
  in
  let handle_down (ev : Event.down) =
    match ev with
    | Event.D_cast m ->
      Msg.push_u32 m t.next_seq;
      Delivery_log.record t.log ~origin:(my_eid t) ~seq:t.next_seq m;
      (* Our own copy is delivered back via loopback like anyone
         else's; pre-recording it here keeps it recoverable even if the
         loopback is still in flight when a flush starts. *)
      t.next_seq <- t.next_seq + 1;
      Msg.push_u8 m k_data;
      env.Layer.emit_down (Event.D_cast m)
    | Event.D_send (dsts, m) ->
      Msg.push_u8 m k_app_send;
      env.Layer.emit_down (Event.D_send (dsts, m))
    | Event.D_flush_ok ->
      (match t.recovery with
       | Some rc ->
         rc.rc_ok_from_above <- true;
         maybe_release t
       | None -> env.Layer.emit_down ev)
    | _ -> env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (rank, m, meta) | Event.U_send (rank, m, meta) ->
      let kind = Msg.pop_u8 m in
      if kind = k_data then begin
        let seq = Msg.pop_u32 m in
        let origin = Com.src_of meta in
        (* Same straggler rule as MBRSHIP: once our STATE is out, a
           late copy from a failed origin would escape the cut. *)
        let straggler =
          match t.recovery with
          | Some rc -> List.exists (fun e -> Addr.endpoint_id e = origin) rc.rc_failed
          | None -> false
        in
        if not straggler then accept_data t ~origin ~seq ~rank m meta ev
      end
      else if kind = k_app_send then env.Layer.emit_up (Event.U_send (rank, m, meta))
      else if kind = k_state then begin
        let failed = Wire.pop_endpoint_list m in
        let vec = pop_pairs m in
        let copies = pop_copies m in
        match t.recovery with
        | Some rc
          when Addr.equal_endpoint rc.rc_coord (me t) && same_failed failed rc.rc_failed ->
          let src = Com.src_of meta in
          if ESet.mem (Addr.endpoint src) rc.rc_waiting then begin
            rc.rc_waiting <- ESet.remove (Addr.endpoint src) rc.rc_waiting;
            rc.rc_states <- (src, vec, copies) :: rc.rc_states;
            if ESet.is_empty rc.rc_waiting then complete_recovery t rc
          end
        | Some _ -> ()
        | None ->
          t.early_states <- (failed, Com.src_of meta, vec, copies) :: t.early_states
      end
      else if kind = k_fwd then
        List.iter
          (fun (o, s, p) ->
             let copy = Msg.create p in
             Delivery_log.accept t.log ~origin:o ~seq:s copy
               (Event.U_cast (rank_of_origin t o, copy, [])))
          (pop_copies m)
      else if kind = k_done then begin
        let failed = Wire.pop_endpoint_list m in
        match t.recovery with
        | Some rc when same_failed failed rc.rc_failed ->
          rc.rc_done <- true;
          maybe_release t
        | Some _ | None -> ()
      end
      else env.Layer.reject ()
    | Event.U_flush failed ->
      (* BMS starts a flush: run the recovery round, and hold the
         application's flush_ok until it completes. *)
      start_recovery t failed;
      env.Layer.emit_up ev
    | Event.U_view v ->
      t.view <- Some v;
      t.next_seq <- 0;
      Delivery_log.reset t.log;
      t.recovery <- None;
      t.early_states <- [];
      env.Layer.emit_up ev
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "FLUSH";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "recoveries=%d logged=%d recovering=%b ctl_sent=%d" t.recoveries_run
             (Delivery_log.size t.log) (t.recovery <> None) t.ctl_sent ]);
    inert = false;
    stop = (fun () -> ()) }
