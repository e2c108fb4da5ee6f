(* STABLE: application-defined message stability (Section 9).

   Every data cast is tagged with a per-origin sequence number; the id
   is exposed to the application through the delivery's meta (key
   "stable_id"). The application calls the ack downcall when it has
   *processed* a message — displayed it, logged it to disk, whatever
   processing means to it; that is the end-to-end knob the paper makes
   so much of. Members gossip their cumulative ack vectors, and the
   layer reports the full stability matrix upward: acked.(i).(j) is how
   many of origin i's messages member j has acknowledged.

   With [auto_ack=true] (the default) receipt counts as processing,
   giving receipt stability without application involvement. *)

open Horus_msg
open Horus_hcpi

let k_data = 0
let k_ackvec = 1

(* Stability ids pack (origin rank, seq): rank in the top bits. *)
let id_bits = 20

let make_id ~rank ~seq =
  if seq >= 1 lsl id_bits then invalid_arg "Stable: sequence overflow";
  (rank lsl id_bits) lor seq

let split_id id = (id lsr id_bits, id land ((1 lsl id_bits) - 1))

let meta_key = "stable_id"

type state = {
  env : Layer.env;
  auto_ack : bool;
  gossip_period : float;
  mutable view : View.t option;
  mutable my_rank : int;
  mutable next_seq : int;              (* my own casts *)
  mutable recv_count : int array;      (* per origin rank: received *)
  mutable own_acks : int array;        (* per origin rank: acked by the app *)
  mutable matrix : int array array;    (* origin x member: acked counts *)
  mutable last_gossiped : int array;
  mutable stop_timer : unit -> unit;
  mutable gossips : int;
}

let n_members t = match t.view with Some v -> View.size v | None -> 0

let emit_matrix t =
  match t.view with
  | None -> ()
  | Some v ->
    let stab =
      { Event.origins = View.members_array v;
        acked = Array.map Array.copy t.matrix }
    in
    t.env.Layer.emit_up (Event.U_stable stab)

let ack t id =
  let rank, seq = split_id id in
  if rank >= 0 && rank < Array.length t.own_acks && seq + 1 > t.own_acks.(rank) then begin
    t.own_acks.(rank) <- seq + 1;
    if t.my_rank >= 0 then begin
      t.matrix.(rank).(t.my_rank) <- t.own_acks.(rank);
      emit_matrix t
    end
  end

let gossip t =
  if t.my_rank >= 0 && n_members t > 1 && t.own_acks <> t.last_gossiped then begin
    t.last_gossiped <- Array.copy t.own_acks;
    t.gossips <- t.gossips + 1;
    let m = Msg.empty () in
    for i = Array.length t.own_acks - 1 downto 0 do
      Msg.push_u32 m t.own_acks.(i)
    done;
    Msg.push_u16 m (Array.length t.own_acks);
    Msg.push_u8 m k_ackvec;
    t.env.Layer.emit_down (Event.D_cast m)
  end

let on_view t v =
  let n = View.size v in
  t.view <- Some v;
  t.my_rank <- Option.value (View.rank_of v t.env.Layer.endpoint) ~default:(-1);
  t.next_seq <- 0;
  t.recv_count <- Array.make n 0;
  t.own_acks <- Array.make n 0;
  t.matrix <- Array.make_matrix n n 0;
  t.last_gossiped <- Array.make n (-1)

let create params env =
  let t =
    { env;
      auto_ack = Params.get_bool params "auto_ack" ~default:true;
      gossip_period = Params.get_float params "gossip_period" ~default:0.05;
      view = None;
      my_rank = -1;
      next_seq = 0;
      recv_count = [||];
      own_acks = [||];
      matrix = [||];
      last_gossiped = [||];
      stop_timer = (fun () -> ());
      gossips = 0 }
  in
  t.stop_timer <- Layer.every env ~period:t.gossip_period (fun () -> gossip t);
  let handle_down (ev : Event.down) =
    match ev with
    | Event.D_cast m ->
      Msg.push_u32 m t.next_seq;
      t.next_seq <- t.next_seq + 1;
      Msg.push_u8 m k_data;
      env.Layer.emit_down (Event.D_cast m)
    | Event.D_ack id | Event.D_stable id -> ack t id
    | _ -> env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (rank, m, meta) ->
      let kind = Msg.pop_u8 m in
      if kind = k_data then begin
        let seq = Msg.pop_u32 m in
        if rank >= 0 && rank < Array.length t.recv_count then
          t.recv_count.(rank) <- Int.max t.recv_count.(rank) (seq + 1);
        let id = make_id ~rank:(Int.max rank 0) ~seq in
        env.Layer.emit_up (Event.U_cast (rank, m, (meta_key, id) :: meta));
        if t.auto_ack then ack t id
      end
      else if kind = k_ackvec then begin
        let n = Msg.pop_u16 m in
        let vec = Array.init n (fun _ -> Msg.pop_u32 m) in
        if rank >= 0 && n = Array.length t.matrix then begin
          for origin = 0 to n - 1 do
            if vec.(origin) > t.matrix.(origin).(rank) then
              t.matrix.(origin).(rank) <- vec.(origin)
          done;
          emit_matrix t
        end
      end
      else env.Layer.reject ()
    | Event.U_view v ->
      on_view t v;
      env.Layer.emit_up ev
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "STABLE";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "rank=%d next_seq=%d gossips=%d" t.my_rank t.next_seq t.gossips ]);
    inert = false;
    stop = (fun () -> t.stop_timer ()) }
