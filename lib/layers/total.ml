(* TOTAL: token-based totally ordered multicast (Section 7).

   During normal operation a rotating token carries the next global
   sequence number; only the holder casts data, stamped with
   consecutive numbers, and receivers deliver in number order. A member
   with messages to send casts a token request; the holder hands the
   token over once its own backlog has drained — the "oracle" that
   picks the next holder is the request queue.

   TOTAL requires virtual synchrony below and needs no failure detector
   of its own: if the token is lost with a crashed holder, undelivered
   messages are buffered, and at the view change every survivor holds
   the same buffered set (that is exactly virtual synchrony), so a
   deterministic rule — deliver by (sequence, source rank), token to
   the lowest-ranked member — resynchronizes everyone without any
   agreement protocol. The paper notes this sidesteps the FLP
   impossibility because MBRSHIP supplies the failure information. *)

open Horus_msg
open Horus_hcpi

let k_ordered = 0
let k_treq = 1
let k_token = 2

type state = {
  env : Layer.env;
  mutable my_rank : int;
  mutable holder : int;            (* believed token holder (rank) *)
  mutable token_gen : int;         (* highest handover generation seen *)
  mutable next_gseq : int;         (* holder only: next number to assign *)
  mutable next_deliver : int;
  buffer : (int, int * Msg.t * Event.meta) Hashtbl.t;  (* gseq -> rank, msg, meta *)
  pending : Msg.t Queue.t;         (* my casts awaiting the token *)
  mutable requested : bool;
  mutable requests : int list;     (* ranks wanting the token, oldest first *)
  mutable casts_ordered : int;
  mutable token_passes : int;
}

let have_token t = t.my_rank >= 0 && t.holder = t.my_rank

let cast_down t m = t.env.Layer.emit_down (Event.D_cast m)

(* Handovers carry a strictly increasing generation. The layer below
   only orders casts per origin, so two handovers from different ranks
   can arrive in either order (a dropped one is repaired late); without
   the generation a stale handover would overwrite the holder belief —
   or make the actual holder abandon the token — and deadlock the
   group. Only the unique holder ever increments, so the genuine chain
   is strictly increasing and the latest always wins. *)
let send_token t ~to_rank =
  (* The token is moving: not steady state. *)
  t.env.Layer.fp_invalidate ();
  t.token_passes <- t.token_passes + 1;
  t.token_gen <- t.token_gen + 1;
  t.holder <- to_rank;
  let m = Msg.empty () in
  Msg.push_u32 m t.next_gseq;
  Msg.push_u32 m t.token_gen;
  Msg.push_u16 m to_rank;
  Msg.push_u8 m k_token;
  cast_down t m

(* Holder: give [m] the next global sequence number. *)
let stamp t m =
  Msg.push_u32 m t.next_gseq;
  Msg.push_u8 m k_ordered;
  t.next_gseq <- t.next_gseq + 1;
  t.casts_ordered <- t.casts_ordered + 1

(* Holder, once its backlog is cast: hand the token to the first
   requester, if any. *)
let hand_off t =
  t.requested <- false;
  match t.requests with
  | r :: rest when r <> t.my_rank ->
    t.requests <- rest;
    send_token t ~to_rank:r
  | r :: rest when r = t.my_rank -> t.requests <- rest
  | _ -> ()

(* Holder: cast everything pending, then hand off. *)
let drain t =
  if have_token t then begin
    while not (Queue.is_empty t.pending) do
      let m = Queue.pop t.pending in
      stamp t m;
      cast_down t m
    done;
    hand_off t
  end

let request_token t =
  if (not t.requested) && not (have_token t) then begin
    t.requested <- true;
    let m = Msg.empty () in
    Msg.push_u16 m t.my_rank;
    Msg.push_u8 m k_treq;
    cast_down t m
  end

let rec deliver_ready t =
  match Hashtbl.find_opt t.buffer t.next_deliver with
  | Some (rank, m, meta) ->
    Hashtbl.remove t.buffer t.next_deliver;
    t.next_deliver <- t.next_deliver + 1;
    t.env.Layer.emit_up (Event.U_cast (rank, m, meta));
    deliver_ready t
  | None -> ()

(* View change: every survivor holds the same buffered set (virtual
   synchrony below), so the deterministic flush order — ascending
   (gseq, source rank) — agrees everywhere; then the token restarts at
   the lowest-ranked member. *)
let on_view t v =
  let leftovers =
    Hashtbl.fold (fun g (rank, m, meta) acc -> (g, rank, m, meta) :: acc) t.buffer []
    |> List.sort (fun (g1, r1, _, _) (g2, r2, _, _) ->
        let c = Int.compare g1 g2 in
        if c <> 0 then c else Int.compare r1 r2)
  in
  Hashtbl.reset t.buffer;
  List.iter (fun (_, rank, m, meta) -> t.env.Layer.emit_up (Event.U_cast (rank, m, meta)))
    leftovers;
  t.my_rank <- Option.value (View.rank_of v t.env.Layer.endpoint) ~default:(-1);
  t.holder <- 0;
  t.token_gen <- 0;
  t.next_gseq <- 0;
  t.next_deliver <- 0;
  t.requested <- false;
  t.requests <- [];
  t.env.Layer.emit_up (Event.U_view v);
  if not (Queue.is_empty t.pending) then begin
    if have_token t then drain t else request_token t
  end

let create (_ : Params.t) env =
  let t =
    { env;
      my_rank = -1;
      holder = 0;
      token_gen = 0;
      next_gseq = 0;
      next_deliver = 0;
      buffer = Hashtbl.create 32;
      pending = Queue.create ();
      requested = false;
      requests = [];
      casts_ordered = 0;
      token_passes = 0 }
  in
  let handle_down (ev : Event.down) =
    match ev with
    | Event.D_cast m when have_token t && Queue.is_empty t.pending ->
      (* What [drain] would do with it alone: stamp it and pass it on,
         here as it came. *)
      stamp t m;
      env.Layer.emit_down ev;
      hand_off t
    | Event.D_cast m ->
      Queue.push m t.pending;
      if have_token t then drain t else request_token t
    | _ -> env.Layer.emit_down ev
  in
  (* Fused form: only the token holder with a drained backlog and no
     outstanding requests can fuse a send (the assignment is then
     exactly what [drain] would stamp); a delivery fuses only for the
     very next global sequence number with nothing else buffered. Any
     token movement invalidates the compiled path. *)
  env.Layer.fp_register (fun () ->
      Some
        { Layer.fp_send_ready =
            (fun ~len:_ ->
               have_token t && Queue.is_empty t.pending && t.requests = []);
          fp_send =
            (fun m ->
               stamp t m;
               t.requested <- false);
          fp_deliver_check =
            (fun ~src:_ m ->
               Msg.pop_u8 m = k_ordered
               && Msg.pop_u32 m = t.next_deliver
               && Hashtbl.length t.buffer = 0);
          fp_deliver_commit = (fun _ -> t.next_deliver <- t.next_deliver + 1) });
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (rank, m, meta) ->
      let kind = Msg.pop_u8 m in
      if kind = k_ordered then begin
        let gseq = Msg.pop_u32 m in
        (* The next number with nothing buffered is delivered
           straight through; only early arrivals are buffered. *)
        if gseq = t.next_deliver && Hashtbl.length t.buffer = 0 then begin
          t.next_deliver <- gseq + 1;
          env.Layer.emit_up ev
        end
        else begin
          Hashtbl.replace t.buffer gseq (rank, m, meta);
          deliver_ready t
        end
      end
      else if kind = k_treq then begin
        let req_rank = Msg.pop_u16 m in
        if not (List.mem req_rank t.requests) then
          t.requests <- t.requests @ [ req_rank ];
        if have_token t && Queue.is_empty t.pending then drain t
      end
      else if kind = k_token then begin
        let to_rank = Msg.pop_u16 m in
        let gen = Msg.pop_u32 m in
        let gseq = Msg.pop_u32 m in
        (* A generation at or below ours is a stale hand-off. *)
        if gen > t.token_gen then begin
          env.Layer.fp_invalidate ();
          t.token_gen <- gen;
          t.holder <- to_rank;
          t.requests <- List.filter (fun r -> r <> to_rank) t.requests;
          if to_rank = t.my_rank then begin
            t.next_gseq <- gseq;
            drain t
          end
        end
      end
      else env.Layer.reject ()
    | Event.U_view v -> on_view t v
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "TOTAL";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "rank=%d holder=%d gen=%d next_deliver=%d buffered=%d pending=%d"
             t.my_rank t.holder t.token_gen t.next_deliver (Hashtbl.length t.buffer)
             (Queue.length t.pending);
           Printf.sprintf "ordered=%d token_passes=%d" t.casts_ordered t.token_passes ]);
    inert = false;
    stop = (fun () -> ()) }
