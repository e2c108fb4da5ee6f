(* MBRSHIP: group membership and virtual synchrony (Section 5).

   MBRSHIP simulates an environment in which members can only fail
   (never be slow or disconnected) and messages are not lost. Each
   member holds a view — an ordered member list — and every member of a
   view either installs the same next view or is excluded from it.
   Messages cast in a view are delivered to all surviving members of
   that view before the next view installs: virtual synchrony.

   At the heart of the layer is the flush protocol of Figure 2. The
   coordinator — the oldest surviving member, an election that needs no
   messages — sends FLUSH_REQ to all survivors. Each survivor stops
   casting, raises the FLUSH upcall, and once the application (or a
   FLUSH layer above) answers with the flush_ok downcall, replies with
   its receive vector and copies of its unstable messages. The
   coordinator computes the maximal cut, forwards whatever any survivor
   is missing, and installs the next view.

   Joins are merges of a singleton view (Section 11: "member join
   (actually, view merge)"); partition merges run each side's flush
   before the union view installs, so messages stay within the view
   they were cast in. Failure suspicions arrive from the layer below
   (PROBLEM upcalls), from the application (the suspect downcall — the
   external failure detector of Section 5), or transitively from other
   members.

   With [forward_unstable=false] the same machinery provides only
   consistent views and semi-synchrony — that variant is registered as
   the BMS layer, over which a separate FLUSH layer can re-create full
   virtual synchrony compositionally (Table 3). *)

open Horus_msg
open Horus_hcpi

let k_data = 0
let k_stab = 1
let k_flush_req = 2
let k_flush_reply = 3
let k_fwd = 4
let k_view_install = 5
let k_merge_req = 6
let k_merge_grant = 7
let k_merge_deny = 8
let k_merge_ready = 9
let k_suspect = 10
let k_leave_req = 11
let k_app_send = 12  (* subset sends of layers above, passing through *)
let k_halt = 13      (* primary-partition mode: minority must halt *)

module ESet = Addr.Endpoint_set
module ISet = Set.Make (Int)

type reply = {
  rep_vector : (int * int) list;          (* origin eid -> next expected seq *)
  rep_copies : (int * int * string) list; (* origin eid, seq, payload *)
}

type flush_ctx = {
  fl_coord : Addr.endpoint;
  fl_round : int;
  fl_failed : Addr.endpoint list;
  fl_leavers : Addr.endpoint list;
  fl_joiners : Addr.endpoint list;
  (* requester-side merge: where to report MERGE_READY when the flush
     completes instead of installing a view *)
  fl_merge_into : Addr.endpoint option;
  (* coordinator bookkeeping *)
  mutable fl_waiting : ESet.t;
  mutable fl_replies : (int * reply) list;  (* replier eid -> reply *)
  (* member bookkeeping *)
  mutable fl_needs_reply : bool;   (* emitted U_flush, awaiting D_flush_ok *)
  mutable fl_replied : bool;       (* FLUSH_REPLY sent for this round *)
}

type merge_wait = {
  mw_contact : Addr.endpoint;
  mutable mw_attempts : int;
}

type phase =
  | Idle
  | Normal
  | Flushing of flush_ctx
  | Exited

type state = {
  env : Layer.env;
  forward_unstable : bool;
  ignore_stragglers : bool;
      (* Section 5's "ignore messages from supposedly failed members"
         rule. Disabling it (ignore_stragglers=false) deliberately
         reintroduces the straggler race that lib/model/flush_model.ml
         and the lib/check explorer both catch — kept as a switch so
         the systematic tests can demonstrate the counterexample on
         the production stack. *)
  primary_partition : bool;
      (* Section 9: Isis-style progress restriction — only a partition
         holding a strict majority of the previous view may install the
         next view; minority members halt (EXIT) and must rejoin. With
         [false] (default), every partition makes progress: the
         extended-virtual-synchrony style. *)
  auto_merge : bool;
  stab_period : float;
  merge_retry : float;
  merge_abort : float;
      (* a requester-side merge flush (blocked awaiting the grantor's
         install) aborts after this long: the grantor may have died,
         and it is outside our view, so no suspicion will ever fire *)
  suspect_grace : float;
      (* a detector suspicion only takes effect after the member stays
         silent this long; 0 = immediate (transient chaos-induced loss
         below must not rule a live member out) *)
  mutable phase : phase;
  mutable view : View.t option;
  mutable next_seq : int;                       (* my casts, this view *)
  log : Delivery_log.t;                         (* per-view delivery + unstable store *)
  acked : (int, int array) Hashtbl.t;
      (* origin eid -> per member rank, the next seq of that origin the
         member reported delivering (0 until it reports; our own
         column is unused). A row per origin named by stability gossip
         — an origin outside the view, a straggler, gets one too. *)
  mutable suspects : ESet.t;
  pending_suspects : (int, Addr.endpoint) Hashtbl.t;
      (* suspicions inside their grace window, keyed by endpoint id;
         hearing anything from the member cancels the entry *)
  mutable failed_set : ISet.t;
      (* endpoints a view install removed: the Section 5 ignore rule's
         post-view half, by endpoint id. A straggler cast from one of
         these would surface at whichever members it happens to reach,
         in a view its origin is not part of — so data from them is
         dropped until a later install (a merge) re-admits them. *)
  pending_casts : Msg.t Queue.t;                (* casts issued while blocked *)
  mutable round_counter : int;
  mutable merge_wait : merge_wait option;       (* outgoing merge in progress *)
  mutable pending_grant : (int * Event.merge_request) list;  (* req awaiting app decision *)
  mutable granted_peer : (Addr.endpoint * Addr.endpoint list) option;
      (* requester coordinator we granted, and its member list *)
  mutable peer_epoch : int;  (* requesting partition's epoch, from MERGE_READY *)
  mutable pending_leavers : Addr.endpoint list;  (* leave requests queued behind a flush *)
  mutable req_counter : int;
  mutable stop_timer : unit -> unit;
  mutable views_installed : int;
  mutable flushes_run : int;
  mutable ctl_sent : int;  (* membership-protocol unicasts, for the ablation bench *)
}

let me t = t.env.Layer.endpoint

let my_eid t = Addr.endpoint_id (me t)

let epoch t = match t.view with Some v -> View.ltime v | None -> -1

let members t = match t.view with Some v -> View.members v | None -> []

let is_suspect t e = ESet.mem e t.suspects

(* The message-free election: oldest member of the view that is not
   suspected. *)
let coordinator t =
  List.find_opt (fun m -> not (is_suspect t m)) (members t)

let i_am_coordinator t =
  match coordinator t with
  | Some c -> Addr.equal_endpoint c (me t)
  | None -> false

let blocked t = match t.phase with Flushing _ -> true | Idle | Normal | Exited -> false

let unicast t dst m =
  t.ctl_sent <- t.ctl_sent + 1;
  t.env.Layer.emit_down (Event.D_send ([ dst ], m))

(* --- wire helpers (shared with the other membership layers) --- *)

let push_pairs = Delivery_log.push_pairs
let pop_pairs = Delivery_log.pop_pairs
let push_copies = Delivery_log.push_copies
let pop_copies = Delivery_log.pop_copies

(* --- delivery --- *)

let rank_of_origin t origin =
  match t.view with
  | None -> -1
  | Some v -> Option.value (View.rank_of v (Addr.endpoint origin)) ~default:(-1)

(* Deliver origin's data cast in sequence (shared bookkeeping;
   forwarded copies can race direct copies). *)
let accept_data t ~origin ~seq ~rank m meta ev =
  let rank = if rank >= 0 then rank else rank_of_origin t origin in
  Delivery_log.accept t.log ~origin ~seq m (Delivery_log.cast_upcall ev ~rank m meta)

(* Number my data cast and log it in the unstable store (the log keeps
   a frozen alias of the message as this layer sends it). *)
let stamp_cast t m =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Delivery_log.record t.log ~origin:(my_eid t) ~seq m;
  Msg.push_u32 m seq;
  Msg.push_u8 m k_data

(* --- stability gossip and log GC --- *)

let stab_vector t = Delivery_log.vector t.log

(* An origin's stability floor: the least next-expected seq over the
   view's members, ours read live from the log. *)
let floor_of t v origin =
  let me = my_eid t in
  let row = match Hashtbl.find t.acked origin with row -> row | exception Not_found -> [||] in
  let members = View.members_array v in
  let floor = ref max_int in
  for r = 0 to Array.length members - 1 do
    let d =
      if Addr.endpoint_id members.(r) = me then Delivery_log.next_expected t.log origin
      else if r < Array.length row then row.(r)
      else 0
    in
    if d < !floor then floor := d
  done;
  !floor

let gc_store t =
  match t.view with
  | None -> ()
  | Some v -> Delivery_log.gc t.log ~floor_of:(floor_of t v)

let cast_stab t =
  if t.phase = Normal && List.length (members t) > 1 then begin
    let m = Msg.empty () in
    push_pairs m (stab_vector t);
    Msg.push_u32 m (epoch t);
    Msg.push_u8 m k_stab;
    t.env.Layer.emit_down (Event.D_cast m)
  end

(* Only members' reports can raise a floor, so a report from outside
   the view is read and dropped. *)
let handle_stab t ~src m =
  let pairs = pop_pairs m in
  (match t.view with
   | Some v when src >= 0 ->
     (match View.rank_of v (Addr.endpoint src) with
      | Some peer ->
        List.iter
          (fun (origin, next) ->
             let row =
               match Hashtbl.find_opt t.acked origin with
               | Some row -> row
               | None ->
                 let row = Array.make (View.size v) 0 in
                 Hashtbl.replace t.acked origin row;
                 row
             in
             if next > row.(peer) then row.(peer) <- next)
          pairs
      | None -> ())
   | Some _ | None -> ());
  gc_store t

(* --- view adoption --- *)

let adopt_view t v =
  (* Members this install removes are "supposedly failed" (Section 5):
     their in-flight casts must not surface in the new view (whatever
     was received pre-reply travelled in the flush replies already).
     An install that re-admits an endpoint (a merge) clears it. *)
  (match t.view with
   | Some prev ->
     List.iter
       (fun m ->
          if not (View.mem v m) then t.failed_set <- ISet.add (Addr.endpoint_id m) t.failed_set)
       (View.members prev)
   | None -> ());
  t.failed_set <- ISet.filter (fun id -> not (View.mem v (Addr.endpoint id))) t.failed_set;
  t.view <- Some v;
  t.next_seq <- 0;
  Delivery_log.reset t.log;
  Hashtbl.reset t.acked;
  t.suspects <- ESet.empty;
  Hashtbl.reset t.pending_suspects;
  t.phase <- Normal;
  t.merge_wait <- None;
  t.views_installed <- t.views_installed + 1;
  t.env.Layer.emit_down (Event.D_view v);
  t.env.Layer.emit_up (Event.U_view v);
  (* Rendezvous bookkeeping: only the coordinator stays registered. *)
  let rdv = t.env.Layer.rendezvous in
  if Addr.equal_endpoint (View.coordinator v) (me t) then
    rdv.Layer.announce t.env.Layer.group (me t)
  else rdv.Layer.withdraw t.env.Layer.group (me t);
  (* Unblock casts queued during the flush; they are cast afresh in the
     new view. *)
  let rec drain () =
    if not (Queue.is_empty t.pending_casts) then begin
      let m = Queue.pop t.pending_casts in
      stamp_cast t m;
      t.env.Layer.emit_down (Event.D_cast m);
      drain ()
    end
  in
  drain ()

(* Go silent for good: tell the layers below that the destination set
   is just ourselves, so nothing more is sent to (or suspected about)
   the group we no longer belong to. *)
let go_exited t =
  if t.phase <> Exited then begin
    t.env.Layer.fp_invalidate ();
    t.phase <- Exited;
    Hashtbl.reset t.pending_suspects;
    t.env.Layer.rendezvous.Layer.withdraw t.env.Layer.group (me t);
    let lonely =
      View.create ~group:t.env.Layer.group ~ltime:(epoch t + 1) ~members:[ me t ]
    in
    t.env.Layer.emit_down (Event.D_view lonely);
    t.env.Layer.emit_up Event.U_exit
  end

(* --- flush protocol --- *)

let survivors_of t ~failed =
  List.filter (fun m -> not (List.exists (Addr.equal_endpoint m) failed)) (members t)

let send_flush_req t (fl : flush_ctx) dst =
  let m = Msg.empty () in
  (match fl.fl_merge_into with
   | Some g ->
     Wire.push_endpoint m g;
     Msg.push_bool m true
   | None -> Msg.push_bool m false);
  Wire.push_endpoint_list m fl.fl_joiners;
  Wire.push_endpoint_list m fl.fl_leavers;
  Wire.push_endpoint_list m fl.fl_failed;
  Msg.push_u16 m fl.fl_round;
  Wire.push_endpoint m fl.fl_coord;
  Msg.push_u32 m (epoch t);
  Msg.push_u8 m k_flush_req;
  unicast t dst m

(* Start (or restart) a flush as coordinator. *)
let start_flush t ~failed ~leavers ~joiners ~merge_into =
  t.round_counter <- t.round_counter + 1;
  t.flushes_run <- t.flushes_run + 1;
  let fl =
    { fl_coord = me t;
      fl_round = t.round_counter;
      fl_failed = failed;
      fl_leavers = leavers;
      fl_joiners = joiners;
      fl_merge_into = merge_into;
      fl_waiting = ESet.of_list (survivors_of t ~failed);
      fl_replies = [];
      fl_needs_reply = false;
      fl_replied = false }
  in
  t.env.Layer.fp_invalidate ();
  t.phase <- Flushing fl;
  (* Requester-side merge flushes block awaiting the grantor's install;
     the grantor is outside our view, so no failure suspicion can
     unblock us — a watchdog must. On abort, we re-install our own
     membership under a fresh epoch and resume alone. *)
  (match merge_into with
   | Some _ ->
     let round = fl.fl_round in
     ignore
       (t.env.Layer.set_timer ~delay:t.merge_abort (fun () ->
            match t.phase with
            | Flushing fl'
              when fl'.fl_round = round && Addr.equal_endpoint fl'.fl_coord (me t) ->
              t.merge_wait <- None;
              t.env.Layer.emit_up (Event.U_merge_denied "merge aborted: grantor unresponsive");
              (match t.view with
               | Some v ->
                 (* Re-install our own membership under a fresh epoch,
                    at every member of our partition (they are blocked
                    in the same flush, awaiting an install). *)
                 let nv =
                   View.create ~group:(View.group v) ~ltime:(View.ltime v + 1)
                     ~members:(View.members v)
                 in
                 List.iter
                   (fun dst ->
                      let m = Msg.empty () in
                      View.push m nv;
                      Msg.push_u8 m k_view_install;
                      unicast t dst m)
                   (View.members nv)
               | None -> ())
            | Idle | Normal | Exited | Flushing _ -> ()))
   | None -> ());
  ESet.iter (fun dst -> send_flush_req t fl dst) fl.fl_waiting

(* Member side: answer a FLUSH_REQ once the local stack has agreed via
   the flush_ok downcall. *)
let send_flush_reply t (fl : flush_ctx) =
  fl.fl_replied <- true;
  let m = Msg.empty () in
  let copies = if t.forward_unstable then Delivery_log.copies t.log else [] in
  push_copies m copies;
  push_pairs m (stab_vector t);
  Msg.push_u16 m fl.fl_round;
  Msg.push_u32 m (epoch t);
  Msg.push_u8 m k_flush_reply;
  unicast t fl.fl_coord m

let handle_flush_req t ~src:_ m =
  let coord = Wire.pop_endpoint m in
  let round = Msg.pop_u16 m in
  let failed = Wire.pop_endpoint_list m in
  let leavers = Wire.pop_endpoint_list m in
  let joiners = Wire.pop_endpoint_list m in
  let merge_into = if Msg.pop_bool m then Some (Wire.pop_endpoint m) else None in
  let announce () =
    List.iter
      (fun l ->
         match t.view with
         | Some v ->
           (match View.rank_of v l with
            | Some r -> t.env.Layer.emit_up (Event.U_leave r)
            | None -> ())
         | None -> ())
      leavers;
    t.env.Layer.emit_up (Event.U_flush failed)
  in
  match t.phase with
  | Exited | Idle -> ()
  | Flushing prev when Addr.equal_endpoint coord (me t) ->
    (* Our own FLUSH_REQ looping back: keep the coordinator bookkeeping
       (waiting/replies); ignore if a wider round superseded it. *)
    if Addr.equal_endpoint prev.fl_coord (me t) && prev.fl_round = round then begin
      prev.fl_needs_reply <- true;
      announce ()
    end
  | Normal when Addr.equal_endpoint coord (me t) ->
    ()  (* stale loopback of a flush we already finished *)
  | Normal | Flushing _ ->
    t.env.Layer.fp_invalidate ();
    t.phase <-
      Flushing
        { fl_coord = coord;
          fl_round = round;
          fl_failed = failed;
          fl_leavers = leavers;
          fl_joiners = joiners;
          fl_merge_into = merge_into;
          fl_waiting = ESet.empty;
          fl_replies = [];
          fl_needs_reply = true;
          fl_replied = false };
    announce ()

let current_flush t =
  match t.phase with Flushing fl -> Some fl | Idle | Normal | Exited -> None

let handle_flush_ok_down t =
  match current_flush t with
  | Some fl when fl.fl_needs_reply ->
    fl.fl_needs_reply <- false;
    send_flush_reply t fl
  | Some _ | None -> ()

(* Coordinator: all replies in — compute the cut, forward what anyone
   misses, then install (or, on the requesting side of a merge, report
   readiness to the grantor). *)
let complete_flush t (fl : flush_ctx) =
  let v = match t.view with Some v -> v | None -> assert false in
  (* Maximal cut per origin over all replies, and the union of every
     offered copy. *)
  let cut, everything =
    Delivery_log.cut_and_union ~own:t.log
      (List.map (fun (_, r) -> (r.rep_vector, r.rep_copies)) fl.fl_replies)
  in
  (* Forward to each survivor the messages it reported missing. *)
  if t.forward_unstable then
    List.iter
      (fun (replier, r) ->
         let missing = Delivery_log.missing_for ~cut ~everything r.rep_vector in
         if missing <> [] then begin
           let m = Msg.empty () in
           push_copies m missing;
           Msg.push_u32 m (epoch t);
           Msg.push_u8 m k_fwd;
           unicast t (Addr.endpoint replier) m
         end)
      fl.fl_replies;
  let u_flush_ok_all () =
    List.iter
      (fun (replier, _) ->
         match View.rank_of v (Addr.endpoint replier) with
         | Some r -> t.env.Layer.emit_up (Event.U_flush_ok r)
         | None -> ())
      fl.fl_replies
  in
  u_flush_ok_all ();
  (* Primary-partition restriction: a reconfiguration that excludes
     crashed members may only proceed if the survivors are a strict
     majority of the previous view (voluntary leavers vote with the
     survivors). A minority partition halts: everyone gets EXIT and
     must rejoin the primary once connectivity returns. *)
  let minority =
    t.primary_partition && fl.fl_failed <> []
    && 2 * (List.length fl.fl_replies + List.length fl.fl_leavers) <= View.size v
  in
  if minority then begin
    List.iter
      (fun (replier, _) ->
         if replier <> my_eid t then begin
           let m = Msg.empty () in
           Msg.push_u32 m (epoch t);
           Msg.push_u8 m k_halt;
           unicast t (Addr.endpoint replier) m
         end)
      fl.fl_replies;
    go_exited t
  end
  else
  match fl.fl_merge_into with
  | Some grantor ->
    (* Requesting side of a merge: our partition is flushed; tell the
       grantor who we are. Our members stay blocked until the union
       view arrives from the grantor's coordinator. *)
    let m = Msg.empty () in
    Wire.push_endpoint_list m (survivors_of t ~failed:(fl.fl_failed @ fl.fl_leavers));
    Msg.push_u32 m (epoch t);
    Msg.push_u8 m k_merge_ready;
    unicast t grantor m
  | None ->
    let excluded = fl.fl_failed @ fl.fl_leavers in
    (match View.successor v ~failed:excluded ~joiners:fl.fl_joiners with
     | None -> go_exited t
     | Some nv ->
       let nv =
         (* A merge-granting install must outrank both partitions'
            epochs, or the joining side would reject it as stale. *)
         if fl.fl_joiners <> [] && t.peer_epoch >= View.ltime nv then
           View.create ~group:(View.group nv) ~ltime:(t.peer_epoch + 1)
             ~members:(View.members nv)
         else nv
       in
       t.peer_epoch <- -1;
       t.granted_peer <- None;
       (* Install at every member of the new view, and tell leavers
          they are out. *)
       let m_of_view dst =
         let m = Msg.empty () in
         View.push m nv;
         Msg.push_u8 m k_view_install;
         unicast t dst m
       in
       List.iter m_of_view (View.members nv);
       List.iter
         (fun leaver -> if not (View.mem nv leaver) then m_of_view leaver)
         fl.fl_leavers;
       (* Failed members get the install too. Under a one-way
          partition the excluded member may still hear us even though
          we cannot hear it; the install lets its handle_view_install
          turn the exclusion into a clean EXIT instead of a stack
          stuck waiting in a view that has moved on. Under a full
          partition the unicast is simply lost. *)
       List.iter
         (fun f -> if not (View.mem nv f) then m_of_view f)
         fl.fl_failed)

let handle_flush_reply t ~src m =
  match current_flush t with
  | Some fl when Addr.equal_endpoint fl.fl_coord (me t) ->
    let round = Msg.pop_u16 m in
    if round = fl.fl_round then begin
      let vector = pop_pairs m in
      let copies = pop_copies m in
      if ESet.mem (Addr.endpoint src) fl.fl_waiting then begin
        fl.fl_waiting <- ESet.remove (Addr.endpoint src) fl.fl_waiting;
        fl.fl_replies <- (src, { rep_vector = vector; rep_copies = copies }) :: fl.fl_replies;
        if ESet.is_empty fl.fl_waiting then complete_flush t fl
      end
    end
  | Some _ | None -> ()

let handle_fwd t m =
  List.iter
    (fun (o, s, p) ->
       let copy = Msg.create p in
       Delivery_log.accept t.log ~origin:o ~seq:s copy
         (Event.U_cast (rank_of_origin t o, copy, [])))
    (pop_copies m)

let handle_view_install t m =
  let v = View.pop m in
  if View.mem v (me t) then begin
    if View.ltime v > epoch t then begin
      adopt_view t v;
      (* Leave requests that arrived during the flush. *)
      let leavers = List.filter (View.mem v) t.pending_leavers in
      t.pending_leavers <- [];
      if leavers <> [] && i_am_coordinator t then
        start_flush t ~failed:[] ~leavers ~joiners:[] ~merge_into:None
    end
  end
  else if View.ltime v > epoch t then
    (* We were excluded by a view newer than ours: either we asked to
       leave, or the view moved on without us. *)
    go_exited t
  (* Otherwise a stale excluding install — e.g. one addressed to us as
     a failed member during a partition, retransmitted until the heal,
     by which point our own partition has reconfigured past it.
     Treating it as authoritative would exit a member both sides have
     since moved on with; the epochs say it lost the race. *)

(* --- suspicion --- *)

let confirm_suspects t es =
  match t.view with
  | None -> ()
  | Some _ when (match t.phase with Exited | Idle -> true | Normal | Flushing _ -> false) ->
    ()
  | Some v ->
  let es = List.filter (fun e -> not (Addr.equal_endpoint e (me t))) es in
  let fresh = List.filter (fun e -> not (is_suspect t e) && View.mem v e) es in
  if fresh <> [] then begin
    t.suspects <- List.fold_left (fun acc e -> ESet.add e acc) t.suspects fresh;
    if i_am_coordinator t then begin
      (* Start a flush, or widen the one in progress. *)
      match t.phase with
      | Normal -> start_flush t ~failed:(ESet.elements t.suspects) ~leavers:[] ~joiners:[]
                    ~merge_into:None
      | Flushing fl when Addr.equal_endpoint fl.fl_coord (me t) ->
        start_flush t ~failed:(ESet.elements t.suspects) ~leavers:fl.fl_leavers
          ~joiners:fl.fl_joiners ~merge_into:fl.fl_merge_into
      | Flushing _ ->
        (* We were a member in someone else's flush but that someone is
           now suspected; take over. *)
        start_flush t ~failed:(ESet.elements t.suspects) ~leavers:[] ~joiners:[]
          ~merge_into:None
      | Idle | Exited -> ()
    end
    else begin
      (* Relay to the coordinator (it may not have noticed), and if the
         suspect set now orphans us behind a dead coordinator, the
         recursion above takes over on the next suspicion event. *)
      match coordinator t with
      | Some c when not (Addr.equal_endpoint c (me t)) ->
        let m = Msg.empty () in
        Wire.push_endpoint_list m (ESet.elements t.suspects);
        Msg.push_u32 m (epoch t);
        Msg.push_u8 m k_suspect;
        unicast t c m
      | Some _ | None -> ()
    end
  end

(* Suspicion debounce. With [suspect_grace] > 0 a detector suspicion
   is only provisional: the member is ruled out when it stays silent
   through the whole grace window. A lossy link (chaos-level drops, a
   congested path) makes the NAK detector fire spuriously; a live
   member keeps multicasting k_stab every [stab_period], so hearing
   anything from it cancels the pending entry before the timer
   promotes it. Authoritative reports (the application's D_flush, a
   peer's already-confirmed k_suspect relay) keep bypassing the
   grace via {!confirm_suspects}. *)
let note_suspects t es =
  if t.suspect_grace <= 0.0 then confirm_suspects t es
  else
    List.iter
      (fun e ->
         let eid = Addr.endpoint_id e in
         if (not (Addr.equal_endpoint e (me t)))
            && (not (is_suspect t e))
            && (not (Hashtbl.mem t.pending_suspects eid))
            && (match t.view with Some v -> View.mem v e | None -> false)
         then begin
           Hashtbl.replace t.pending_suspects eid e;
           ignore
             (t.env.Layer.set_timer ~delay:t.suspect_grace (fun () ->
                  if Hashtbl.mem t.pending_suspects eid then begin
                    Hashtbl.remove t.pending_suspects eid;
                    confirm_suspects t [ e ]
                  end))
         end)
      es

(* Evidence of life from [eid]: cancel any suspicion still inside its
   grace window. Confirmed suspicions are not unwound — the flush they
   triggered resolves through a view change and a later merge. *)
let heard_from t eid =
  if Hashtbl.length t.pending_suspects > 0 then Hashtbl.remove t.pending_suspects eid

(* --- merging --- *)

let send_merge_req t contact =
  let m = Msg.empty () in
  Wire.push_endpoint_list m (members t);
  Msg.push_u32 m (epoch t);
  Wire.push_endpoint m (me t);
  Msg.push_u8 m k_merge_req;
  unicast t contact m

let rec arm_merge_retry t =
  ignore
    (t.env.Layer.set_timer ~delay:t.merge_retry (fun () ->
         match t.merge_wait with
         | Some mw when t.phase = Normal ->
           if mw.mw_attempts < 20 then begin
             mw.mw_attempts <- mw.mw_attempts + 1;
             (* The original contact may be gone; re-resolve through the
                rendezvous service when possible. *)
             let contact =
               match t.env.Layer.rendezvous.Layer.lookup t.env.Layer.group with
               | c :: _ when not (Addr.equal_endpoint c (me t)) -> c
               | _ -> mw.mw_contact
             in
             send_merge_req t contact;
             arm_merge_retry t
           end
           else begin
             t.merge_wait <- None;
             t.env.Layer.emit_up (Event.U_merge_denied "merge timed out")
           end
         | Some _ | None -> ()))

let begin_merge t contact =
  if not (Addr.equal_endpoint contact (me t)) then begin
    t.merge_wait <- Some { mw_contact = contact; mw_attempts = 0 };
    send_merge_req t contact;
    arm_merge_retry t
  end

let grant_merge t (req : Event.merge_request) =
  t.granted_peer <- Some (req.Event.from_coord, req.Event.from_members);
  let m = Msg.empty () in
  Msg.push_u8 m k_merge_grant;
  unicast t req.Event.from_coord m

let deny_merge t (req : Event.merge_request) reason =
  let m = Msg.empty () in
  Msg.push_string m reason;
  Msg.push_u8 m k_merge_deny;
  unicast t req.Event.from_coord m

let handle_merge_req t m =
  let req_coord = Wire.pop_endpoint m in
  let their_epoch = Msg.pop_u32 m in
  let their_members = Wire.pop_endpoint_list m in
  match t.view with
  | None -> ()
  | Some v ->
    if not (i_am_coordinator t) then begin
      (* Forward to our coordinator. *)
      match coordinator t with
      | Some c when not (Addr.equal_endpoint c (me t)) ->
        let fwd = Msg.empty () in
        Wire.push_endpoint_list fwd their_members;
        Msg.push_u32 fwd their_epoch;
        Wire.push_endpoint fwd req_coord;
        Msg.push_u8 fwd k_merge_req;
        unicast t c fwd
      | Some _ | None -> ()
    end
    else if List.for_all (View.mem v) their_members then
      ()  (* already merged; duplicate request *)
    else if t.merge_wait <> None && my_eid t > Addr.endpoint_id req_coord then
      (* Symmetric merge race: both coordinators requested each other.
         The younger side stands down and lets its own request be the
         one that is granted. *)
      ()
    else if blocked t || t.granted_peer <> None then
      ()  (* busy with another reconfiguration; the requester retries *)
    else begin
      (* If we had our own request outstanding, cancel it: we are now
         the granting (older) side of this merge. *)
      t.merge_wait <- None;
      t.req_counter <- t.req_counter + 1;
      let req =
        { Event.req_id = t.req_counter; from_coord = req_coord; from_members = their_members }
      in
      if t.auto_merge then grant_merge t req
      else begin
        t.pending_grant <- (t.req_counter, req) :: t.pending_grant;
        t.env.Layer.emit_up (Event.U_merge_request req)
      end
    end

let handle_merge_grant t ~src =
  match t.merge_wait with
  | Some _ when t.phase = Normal ->
    (* Flush our own partition, then report readiness to the grantor. *)
    if i_am_coordinator t then
      start_flush t ~failed:(ESet.elements t.suspects) ~leavers:[] ~joiners:[]
        ~merge_into:(Some (Addr.endpoint src))
  | Some _ | None -> ()

let handle_merge_ready t ~src m =
  let their_epoch = Msg.pop_u32 m in
  let their_members = Wire.pop_endpoint_list m in
  match t.granted_peer with
  | Some (peer, _) when Addr.equal_endpoint peer (Addr.endpoint src) ->
    if t.phase = Normal && i_am_coordinator t then begin
      t.peer_epoch <- their_epoch;
      start_flush t ~failed:(ESet.elements t.suspects) ~leavers:[] ~joiners:their_members
        ~merge_into:None
    end
  | Some _ | None -> ()

(* --- leaving --- *)

let handle_leave t =
  match t.view with
  | None -> go_exited t
  | Some v ->
    if View.size v = 1 then go_exited t
    else if i_am_coordinator t then
      (* Hand the flush to ourselves with us as leaver. *)
      start_flush t ~failed:(ESet.elements t.suspects) ~leavers:[ me t ] ~joiners:[]
        ~merge_into:None
    else begin
      match coordinator t with
      | Some c ->
        let m = Msg.empty () in
        Msg.push_u32 m (epoch t);
        Msg.push_u8 m k_leave_req;
        unicast t c m
      | None -> ()
    end

let handle_leave_req t ~src =
  if i_am_coordinator t then begin
    if t.phase = Normal then
      start_flush t ~failed:(ESet.elements t.suspects) ~leavers:[ Addr.endpoint src ]
        ~joiners:[] ~merge_into:None
    else t.pending_leavers <- Addr.endpoint src :: t.pending_leavers
  end

(* --- event handlers --- *)

let handle_down t (ev : Event.down) =
  match ev with
  | Event.D_join contact ->
    (* Found a singleton view, then (if given a contact) merge with the
       existing group: "member join (actually, view merge)". *)
    adopt_view t (View.singleton ~group:t.env.Layer.group (me t));
    (match contact with
     | Some c when not (Addr.equal_endpoint c (me t)) -> begin_merge t c
     | Some _ | None -> ())
  | Event.D_cast m ->
    if t.phase = Exited then ()
    else if blocked t || t.phase = Idle then Queue.push m t.pending_casts
    else begin
      stamp_cast t m;
      t.env.Layer.emit_down ev
    end
  | Event.D_flush_ok -> handle_flush_ok_down t
  | Event.D_flush failed ->
    (* Application-driven exclusion: treat as an authoritative external
       failure notification — no grace window. *)
    confirm_suspects t failed
  | Event.D_suspect suspects -> note_suspects t suspects
  | Event.D_merge contact -> if i_am_coordinator t then begin_merge t contact
  | Event.D_merge_granted req_ev ->
    (match List.assoc_opt req_ev.Event.req_id t.pending_grant with
     | Some req ->
       t.pending_grant <- List.remove_assoc req_ev.Event.req_id t.pending_grant;
       grant_merge t req
     | None -> ())
  | Event.D_merge_denied req_ev ->
    (match List.assoc_opt req_ev.Event.req_id t.pending_grant with
     | Some req ->
       t.pending_grant <- List.remove_assoc req_ev.Event.req_id t.pending_grant;
       deny_merge t req "denied by application"
     | None -> ())
  | Event.D_leave -> handle_leave t
  | Event.D_send (dsts, m) ->
    (* Tag pass-through subset sends so the receiving side can tell
       them from our own control traffic. *)
    Msg.push_u8 m k_app_send;
    t.env.Layer.emit_down (Event.D_send (dsts, m))
  | Event.D_view _ | Event.D_ack _ | Event.D_stable _ | Event.D_dump ->
    t.env.Layer.emit_down ev

(* Control kinds scoped to a view epoch: a copy that outlives its view
   (e.g. retransmitted across a partition) must be ignored. *)
let epoch_scoped kind =
  kind = k_stab || kind = k_flush_req || kind = k_flush_reply || kind = k_fwd
  || kind = k_suspect || kind = k_leave_req || kind = k_halt

let handle_ctl t ~rank ~meta kind m =
  let src = Com.src_of meta in
  ignore rank;
  if epoch_scoped kind && Msg.pop_u32 m <> epoch t then ()  (* from an old view *)
  else if kind = k_stab then handle_stab t ~src m
  else if kind = k_flush_req then handle_flush_req t ~src m
  else if kind = k_flush_reply then handle_flush_reply t ~src m
  else if kind = k_fwd then handle_fwd t m
  else if kind = k_view_install then handle_view_install t m
  else if kind = k_merge_req then handle_merge_req t m
  else if kind = k_merge_grant then handle_merge_grant t ~src
  else if kind = k_merge_deny then begin
    let reason = Msg.pop_string m in
    t.merge_wait <- None;
    t.env.Layer.emit_up (Event.U_merge_denied reason)
  end
  else if kind = k_merge_ready then handle_merge_ready t ~src m
  else if kind = k_suspect then
    (* The relaying peer already sat out its own grace window. *)
    confirm_suspects t (Wire.pop_endpoint_list m)
  else if kind = k_halt then go_exited t
  else if kind = k_leave_req then handle_leave_req t ~src
  else t.env.Layer.reject ()

let handle_up t (ev : Event.up) =
  match ev with
  | Event.U_cast (rank, m, meta) | Event.U_send (rank, m, meta) ->
    heard_from t (Com.src_of meta);
    let kind = Msg.pop_u8 m in
    if kind = k_data then begin
      let seq = Msg.pop_u32 m in
      let origin = Com.src_of meta in
      (* Section 5: after replying to a flush, ignore messages from
         supposedly failed members — a straggler copy that only some
         survivors receive would break the agreement cut. (It is not
         lost: whoever received it pre-reply put it in the reply, and
         the coordinator forwards it to everyone.) *)
      let from_failed_post_reply =
        t.ignore_stragglers
        && (match t.phase with
            | Flushing fl ->
              fl.fl_replied
              && List.exists (fun e -> Addr.endpoint_id e = origin) fl.fl_failed
            | Normal ->
              (* Post-view half of the same rule: the origin was
                 removed as failed by a view we installed. *)
              ISet.mem origin t.failed_set
            | Idle | Exited -> false)
      in
      if not from_failed_post_reply then accept_data t ~origin ~seq ~rank m meta ev
    end
    else if kind = k_app_send then
      t.env.Layer.emit_up (Event.U_send (rank, m, meta))
    else handle_ctl t ~rank ~meta kind m
  | Event.U_problem e -> note_suspects t [ e ]
  | Event.U_lost_message _ ->
    (* Should not happen under MBRSHIP's requirements (reliable FIFO
       below with buffers outliving stability), but surface it. *)
    t.env.Layer.emit_up ev
  | Event.U_view _ ->
    (* Views fabricated below are superseded by ours; swallow. *)
    ()
  | Event.U_merge_request _ | Event.U_merge_denied _ | Event.U_flush _ | Event.U_flush_ok _
  | Event.U_leave _ | Event.U_stable _ | Event.U_system_error _ | Event.U_exit
  | Event.U_destroy | Event.U_packet _ ->
    t.env.Layer.emit_up ev

let make ~name ~forward_unstable_default params env =
  let t =
    { env;
      forward_unstable =
        Params.get_bool params "forward_unstable" ~default:forward_unstable_default;
      ignore_stragglers = Params.get_bool params "ignore_stragglers" ~default:true;
      primary_partition = Params.get_bool params "primary_partition" ~default:false;
      auto_merge = Params.get_bool params "auto_merge" ~default:true;
      stab_period = Params.get_float params "stab_period" ~default:0.1;
      merge_retry = Params.get_float params "merge_retry" ~default:0.5;
      merge_abort = Params.get_float params "merge_abort" ~default:2.0;
      suspect_grace = Params.get_float params "suspect_grace" ~default:0.0;
      phase = Idle;
      view = None;
      next_seq = 0;
      log = Delivery_log.create ~emit_up:env.Layer.emit_up;
      acked = Hashtbl.create 16;
      suspects = ESet.empty;
      pending_suspects = Hashtbl.create 8;
      failed_set = ISet.empty;
      pending_casts = Queue.create ();
      round_counter = 0;
      merge_wait = None;
      pending_grant = [];
      granted_peer = None;
      peer_epoch = -1;
      pending_leavers = [];
      req_counter = 0;
      stop_timer = (fun () -> ());
      views_installed = 0;
      flushes_run = 0;
      ctl_sent = 0 }
  in
  t.stop_timer <- Layer.every env ~period:t.stab_period (fun () -> cast_stab t);
  (* Fused form: data casts in phase Normal only. The delivery check
     insists the packet is origin's exact next expected cast with an
     empty out-of-order stash, and declines anything from a supposedly
     failed member (conservative: even with ignore_stragglers off, the
     full path — which would deliver it — handles that case). The
     commit logs the payload as seen *at this layer* — the stash/mark
     dance recovers it after the layers above popped their headers. *)
  env.Layer.fp_register (fun () ->
      let chk_off = ref 0 and chk_len = ref 0 in
      let chk_origin = ref (-1) in
      let chk_seq = ref 0 in
      Some
        { Layer.fp_send_ready = (fun ~len:_ -> t.phase = Normal);
          fp_send = stamp_cast t;
          fp_deliver_check =
            (fun ~src:origin m ->
               t.phase = Normal
               && Msg.pop_u8 m = k_data
               && begin
                 let seq = Msg.pop_u32 m in
                 (not (ISet.mem origin t.failed_set))
                 && seq = Delivery_log.next_expected t.log origin
                 && Delivery_log.ooo_pending t.log = 0
                 && begin
                   chk_off := Msg.offset m;
                   chk_len := Msg.length m;
                   chk_origin := origin;
                   chk_seq := seq;
                   true
                 end
               end);
          fp_deliver_commit =
            (fun m ->
               heard_from t !chk_origin;
               let off = Msg.offset m and len = Msg.length m in
               Msg.restore m ~off:!chk_off ~len:!chk_len;
               Delivery_log.advance t.log ~origin:!chk_origin ~seq:!chk_seq ~payload:m;
               Msg.restore m ~off ~len) });
  { Layer.name;
    handle_down = handle_down t;
    handle_up = handle_up t;
    dump =
      (fun () ->
         [ Printf.sprintf "phase=%s epoch=%d members=%d suspects=%d"
             (match t.phase with
              | Idle -> "idle"
              | Normal -> "normal"
              | Flushing _ -> "flushing"
              | Exited -> "exited")
             (epoch t) (List.length (members t)) (ESet.cardinal t.suspects);
           Printf.sprintf "views=%d flushes=%d logged=%d ctl_sent=%d" t.views_installed
             t.flushes_run (Delivery_log.size t.log) t.ctl_sent ]);
    inert = false;
    stop = (fun () -> t.stop_timer ()) }

let create params env = make ~name:"MBRSHIP" ~forward_unstable_default:true params env

(* BMS: the same membership machinery without unstable-message
   forwarding — consistent views and semi-synchrony only (Table 3). A
   FLUSH layer above restores full virtual synchrony compositionally. *)
let create_bms params env = make ~name:"BMS" ~forward_unstable_default:false params env
