(* PINWHEEL: stability tracking with a rotating aggregator.

   Provides the same stability matrix as STABLE (P14) with different
   economics: instead of every member gossiping its ack vector to
   everyone (O(n^2) deliveries per period), responsibility rotates —
   the member whose rank matches the current round pulls ack vectors
   with one multicast, members answer with unicasts, and the wheel
   member multicasts the aggregated matrix: O(n) per period. The bench
   suite compares the two (experiment E11). *)

open Horus_msg
open Horus_hcpi

let k_data = 0
let k_pull = 1
let k_ackvec = 2
let k_matrix = 3
let k_app_send = 4

type state = {
  env : Layer.env;
  auto_ack : bool;
  period : float;
  suspect_after : float;
      (* a member silent this long is reported downward (D_suspect) so
         a membership layer below can react; 0 = detection off *)
  mutable view : View.t option;
  mutable my_rank : int;
  mutable next_seq : int;
  mutable own_acks : int array;
  mutable matrix : int array array;
  mutable round : int;
  mutable collecting : bool;
  mutable last_heard : float array;             (* per rank, engine time *)
  mutable reported : bool array;                (* one D_suspect per silence *)
  mutable stop_timer : unit -> unit;
  mutable pulls : int;
}

let n_members t = match t.view with Some v -> View.size v | None -> 0

let tnow t = Horus_sim.Engine.now t.env.Layer.engine

(* Any wheel traffic from [rank] is evidence of life: the pull, ack
   vector and matrix rounds give every live member a voice each
   rotation, so silence longer than a few periods is meaningful. *)
let heard t rank =
  if t.suspect_after > 0.0 && rank >= 0 && rank < Array.length t.last_heard then begin
    t.last_heard.(rank) <- tnow t;
    t.reported.(rank) <- false
  end

(* Suspicion travels DOWN: PINWHEEL sits above the membership layer,
   so a silent member is reported with D_suspect for MBRSHIP's
   handle_down to pick up (same contract as the application's own
   suspect downcall), once per continuous silence. *)
let check_silence t =
  if t.suspect_after > 0.0 then
    match t.view with
    | Some v when View.size v > 1 && t.my_rank >= 0 ->
      let now = tnow t in
      Array.iteri
        (fun r last ->
           if r <> t.my_rank && (not t.reported.(r))
              && now -. last > t.suspect_after
           then begin
             t.reported.(r) <- true;
             t.env.Layer.emit_down (Event.D_suspect [ View.nth v r ])
           end)
        t.last_heard
    | Some _ | None -> ()

let emit_matrix t =
  match t.view with
  | None -> ()
  | Some v ->
    t.env.Layer.emit_up
      (Event.U_stable
         { Event.origins = View.members_array v; acked = Array.map Array.copy t.matrix })

let ack t id =
  let rank, seq = Stable.split_id id in
  if rank >= 0 && rank < Array.length t.own_acks && seq + 1 > t.own_acks.(rank) then begin
    t.own_acks.(rank) <- seq + 1;
    if t.my_rank >= 0 then t.matrix.(rank).(t.my_rank) <- t.own_acks.(rank)
  end

let push_vec m vec =
  for i = Array.length vec - 1 downto 0 do
    Msg.push_u32 m vec.(i)
  done;
  Msg.push_u16 m (Array.length vec)

let pop_vec m =
  let n = Msg.pop_u16 m in
  Array.init n (fun _ -> Msg.pop_u32 m)

(* Wheel member: pull, and half a period later multicast whatever
   arrived. *)
let my_turn t =
  let n = n_members t in
  n > 1 && t.my_rank >= 0 && t.round mod n = t.my_rank && not t.collecting

let do_pull t =
  t.pulls <- t.pulls + 1;
  t.collecting <- true;
  let round = t.round in
  let m = Msg.empty () in
  Msg.push_u32 m round;
  Msg.push_u8 m k_pull;
  t.env.Layer.emit_down (Event.D_cast m);
  ignore
    (t.env.Layer.set_timer ~delay:(t.period /. 2.0) (fun () ->
         if t.collecting && t.round = round then begin
           t.collecting <- false;
           let mm = Msg.empty () in
           let n = Array.length t.matrix in
           for i = n - 1 downto 0 do
             push_vec mm t.matrix.(i)
           done;
           Msg.push_u16 mm n;
           Msg.push_u32 mm round;
           Msg.push_u8 mm k_matrix;
           t.env.Layer.emit_down (Event.D_cast mm)
         end))

let on_view t v =
  let n = View.size v in
  t.view <- Some v;
  t.my_rank <- Option.value (View.rank_of v t.env.Layer.endpoint) ~default:(-1);
  t.next_seq <- 0;
  t.own_acks <- Array.make n 0;
  t.matrix <- Array.make_matrix n n 0;
  t.round <- 0;
  t.collecting <- false;
  t.last_heard <- Array.make n (tnow t);
  t.reported <- Array.make n false

let create params env =
  let t =
    { env;
      auto_ack = Params.get_bool params "auto_ack" ~default:true;
      period = Params.get_float params "period" ~default:0.05;
      suspect_after = Params.get_float params "suspect_after" ~default:0.0;
      view = None;
      my_rank = -1;
      next_seq = 0;
      own_acks = [||];
      matrix = [||];
      round = 0;
      collecting = false;
      last_heard = [||];
      reported = [||];
      stop_timer = (fun () -> ());
      pulls = 0 }
  in
  t.stop_timer <-
    Layer.every env ~period:t.period (fun () ->
        if my_turn t then do_pull t;
        check_silence t);
  let handle_down (ev : Event.down) =
    match ev with
    | Event.D_cast m ->
      Msg.push_u32 m t.next_seq;
      t.next_seq <- t.next_seq + 1;
      Msg.push_u8 m k_data;
      env.Layer.emit_down (Event.D_cast m)
    | Event.D_send (dsts, m) ->
      Msg.push_u8 m k_app_send;
      env.Layer.emit_down (Event.D_send (dsts, m))
    | Event.D_ack id | Event.D_stable id -> ack t id
    | _ -> env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (rank, m, meta) ->
      heard t rank;
      let kind = Msg.pop_u8 m in
      if kind = k_data then begin
        let seq = Msg.pop_u32 m in
        let id = Stable.make_id ~rank:(Int.max rank 0) ~seq in
        env.Layer.emit_up (Event.U_cast (rank, m, (Stable.meta_key, id) :: meta));
        if t.auto_ack then ack t id
      end
      else if kind = k_pull then begin
        let round = Msg.pop_u32 m in
        match t.view with
        | Some v when rank >= 0 ->
          let reply = Msg.empty () in
          push_vec reply t.own_acks;
          Msg.push_u32 reply round;
          Msg.push_u8 reply k_ackvec;
          t.env.Layer.emit_down (Event.D_send ([ View.nth v rank ], reply))
        | Some _ | None -> ()
      end
      else if kind = k_ackvec then begin
        let _round = Msg.pop_u32 m in
        let vec = pop_vec m in
        if rank >= 0 && Array.length vec = Array.length t.matrix then
          for origin = 0 to Array.length vec - 1 do
            if vec.(origin) > t.matrix.(origin).(rank) then
              t.matrix.(origin).(rank) <- vec.(origin)
          done
      end
      else if kind = k_matrix then begin
        let round = Msg.pop_u32 m in
        let n = Msg.pop_u16 m in
        let rows = Array.init n (fun _ -> pop_vec m) in
        if n = Array.length t.matrix then begin
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              if rows.(i).(j) > t.matrix.(i).(j) then t.matrix.(i).(j) <- rows.(i).(j)
            done
          done;
          if round >= t.round then t.round <- round + 1;
          emit_matrix t
        end
      end
      else env.Layer.reject ()
    | Event.U_view v ->
      on_view t v;
      env.Layer.emit_up ev
    | Event.U_send (rank, m, meta) ->
      (* Ack vectors arrive as sends; anything else passes through. *)
      heard t rank;
      let kind = Msg.pop_u8 m in
      if kind = k_ackvec then begin
        let _round = Msg.pop_u32 m in
        let vec = pop_vec m in
        if rank >= 0 && Array.length vec = Array.length t.matrix then
          for origin = 0 to Array.length vec - 1 do
            if vec.(origin) > t.matrix.(origin).(rank) then
              t.matrix.(origin).(rank) <- vec.(origin)
          done
      end
      else if kind = k_app_send then env.Layer.emit_up (Event.U_send (rank, m, meta))
      else env.Layer.reject ()
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "PINWHEEL";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "rank=%d round=%d pulls=%d" t.my_rank t.round t.pulls ]);
    inert = false;
    stop = (fun () -> t.stop_timer ()) }
