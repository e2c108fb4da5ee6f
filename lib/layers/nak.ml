(* NAK: reliable FIFO delivery via sequence numbers and negative
   acknowledgements (Sections 2 and 7).

   Casts carry a per-origin, per-view-epoch sequence number. A receiver
   that detects a gap asks the origin for a retransmission (NAK); the
   origin retransmits from its buffer, or sends a placeholder that
   surfaces as a LOST_MESSAGE upcall if the buffer no longer holds the
   message. Each endpoint periodically multicasts its protocol status,
   which (a) lets origins garbage-collect acknowledged buffers, (b)
   reveals gaps even when no later data arrives, and (c) doubles as a
   failure detector: prolonged silence raises a PROBLEM upcall.

   Subset sends use per-pair sequence numbers with positive acks and
   per-message retransmission deadlines: one RTO (Jacobson-estimated
   from ack and NAK-repair turnarounds, Karn-filtered) after the send,
   then exponential backoff with jitter up to a cap (see Rto). Pair
   lanes are independent of view epochs so that membership protocols
   above can rely on them during view changes; per-lane buffers can be
   bounded (pair_buffer_limit) so an unreachable peer cannot hold
   memory hostage.

   Representation. The own-cast retransmission buffer is a ring indexed
   by sequence number (Horus_util.Seq_ring), holding the sent casts
   from the acknowledged floor up to the next sequence number as
   frozen aliases (Msg.freeze), not copies: logging a cast is a store,
   and status-driven GC and the buffer_limit eviction touch only the
   entries they free. The pair lanes keep their unacked sends the same
   way. A retransmission copies the alias, since the layers below push
   onto what they are handed. A data cast that arrives
   exactly in sequence with nothing stashed is delivered straight
   through; only arrivals ahead of a gap go into the per-origin stash.
   Liveness timestamps live in unboxed float fields, so hearing from a
   member on every packet allocates nothing.

   Wire kinds (first header byte):
     0 DATA_CAST   epoch, seq        - sequenced multicast data
     1 DATA_SEND   seq               - sequenced pair data
     2 NAK_CAST    epoch, from, to   - please retransmit casts
     3 STATUS      entries           - periodic protocol status
     4 PLACEHOLDER epoch, seq        - gap fill for a lost cast
     5 ACK_SEND    high              - cumulative ack for pair data *)

open Horus_msg
open Horus_hcpi

(* Adaptive retransmission timing, TCP-style (Jacobson/Karn): a
   smoothed RTT estimate drives the retransmission timeout, and every
   unanswered retransmission doubles it up to a cap, so a lossy or
   slow path is probed gently instead of being hammered at a fixed
   period. Pure state + arithmetic, no timers of its own — the layer
   samples, asks, and schedules. *)
module Rto = struct
  type t = {
    init : float;          (* RTO before any sample arrives *)
    min_rto : float;
    max_rto : float;
    mutable srtt : float;  (* negative = no sample yet *)
    mutable rttvar : float;
  }

  let create ?(init = 0.1) ?(min_rto = 0.02) ?(max_rto = 2.0) () =
    if init <= 0.0 || min_rto <= 0.0 || max_rto < min_rto then
      invalid_arg "Rto.create: need 0 < min_rto <= max_rto and init > 0";
    { init; min_rto; max_rto; srtt = -1.0; rttvar = 0.0 }

  let srtt t = if t.srtt < 0.0 then None else Some t.srtt

  (* Standard EWMA gains: alpha = 1/8 for the mean, beta = 1/4 for the
     deviation. *)
  let observe t sample =
    if sample >= 0.0 then
      if t.srtt < 0.0 then begin
        t.srtt <- sample;
        t.rttvar <- sample /. 2.0
      end
      else begin
        t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. Float.abs (t.srtt -. sample));
        t.srtt <- (0.875 *. t.srtt) +. (0.125 *. sample)
      end

  let clamp t v = Float.min t.max_rto (Float.max t.min_rto v)

  let rto t =
    if t.srtt < 0.0 then clamp t t.init else clamp t (t.srtt +. (4.0 *. t.rttvar))

  (* Exponential backoff: attempt 0 waits one RTO, each further
     attempt doubles, capped at max_rto. *)
  let backoff t ~attempt =
    let a = Int.max 0 (Int.min attempt 30) in
    Float.min t.max_rto (rto t *. Float.of_int (1 lsl a))

  let capped t ~attempt = backoff t ~attempt >= t.max_rto

  (* Symmetric jitter: [u] uniform in [0, 1) spreads the deadline
     within [base * (1 - frac), base * (1 + frac)], so synchronized
     losers do not retransmit in lockstep. *)
  let with_jitter base ~frac ~u = base *. (1.0 +. (frac *. ((2.0 *. u) -. 1.0)))
end

let k_data_cast = 0
let k_data_send = 1
let k_nak_cast = 2
let k_status = 3
let k_placeholder = 4
let k_ack_send = 5

type pending = {
  p_rank : int;
  p_msg : Msg.t;
  p_meta : Event.meta;
  p_placeholder : bool;
}

(* Receiving side of one origin's cast lane. *)
type cast_recv = {
  mutable cr_expected : int;
  cr_ooo : (int, pending) Hashtbl.t;
  mutable cr_last_nak_for : int;    (* dedup: last expected we nak'ed *)
  mutable cr_last_nak_at : float;
  mutable cr_nak_attempts : int;    (* re-asks for the same gap; drives backoff *)
}

(* When a member was last heard from. *)
type clock = { mutable at : float }

(* One unacknowledged pair message awaiting its retransmission
   deadline. *)
type unacked = {
  u_msg : Msg.t;                    (* frozen alias of the sent message *)
  u_sent_at : float;                (* first transmission, for RTT sampling *)
  mutable u_attempts : int;         (* retransmissions so far *)
  mutable u_due : float;            (* next retransmission deadline *)
  mutable u_last_tx : float;        (* last transmission, bounds fast retransmit *)
}

(* Receiving and sending side of a pair (send) lane with one peer.
   Acks remove a prefix of the unacked seqs and the bound evicts the
   oldest, so the unacked seqs are always exactly
   [pl_unacked_lo, pl_next_seq). The table stays a hash table because
   retransmission walks it in its own iteration order, which feeds the
   backoff PRNG draws and the RTT estimator. *)
type pair_lane = {
  mutable pl_next_seq : int;                 (* sender side *)
  pl_unacked : (int, unacked) Hashtbl.t;     (* seq -> in-flight entry *)
  mutable pl_unacked_lo : int;               (* lowest seq still unacked *)
  mutable pl_expected : int;                 (* receiver side *)
  pl_ooo : (int, pending) Hashtbl.t;
}

type state = {
  env : Layer.env;
  status_period : float;
  suspect_after : float;
  nak_holdoff : float;
  buffer_limit : int;
      (* retransmission buffer bound; beyond it the oldest casts are
         forgotten and can only be answered with placeholders *)
  pair_buffer_limit : int;
      (* per-peer bound on unacked pair messages; beyond it the oldest
         are forgotten (an unreachable peer must not hold memory
         hostage forever) *)
  rto : Rto.t;
  jitter : float;                   (* backoff jitter fraction *)
  m_retransmits : Horus_obs.Metrics.counter option;
  m_rtt_est : Horus_obs.Metrics.gauge option;
  m_backoff_hit : Horus_obs.Metrics.counter option;
  mutable epoch : int;
  mutable members : Addr.endpoint array;     (* current destination set *)
  mutable cast_next_seq : int;               (* my own cast lane, this epoch *)
  cast_buffer : Msg.t Horus_util.Seq_ring.t;
      (* my casts, seq -> framed copy: the seqs from the acknowledged
         floor (or the buffer_limit eviction point) up to
         [cast_next_seq] *)
  cast_acks : (int, int) Hashtbl.t;          (* peer eid -> high contiguous recv of my casts *)
  recv : (int, cast_recv) Hashtbl.t;         (* origin eid -> lane (current epoch) *)
  mutable future_list : (int * int * int * pending) list;
      (* (origin, epoch, seq, pending): casts from a future view epoch,
         held until our own view install catches up *)
  pairs : (int, pair_lane) Hashtbl.t;        (* peer eid -> lane *)
  last_heard : (int, clock) Hashtbl.t;
  suspected : (int, unit) Hashtbl.t;
  mutable stop_timer : unit -> unit;
  (* statistics *)
  mutable naks_sent : int;
  mutable retransmissions : int;
  mutable placeholders : int;
  mutable duplicates : int;
}

let now t = Horus_sim.Engine.now t.env.Layer.engine

let my_eid t = Addr.endpoint_id t.env.Layer.endpoint

(* Evidence of life, once per packet: the time goes into an unboxed
   float field, so recording it allocates nothing. *)
let heard t eid =
  (match Hashtbl.find t.last_heard eid with
   | c -> c.at <- now t
   | exception Not_found -> Hashtbl.replace t.last_heard eid { at = now t });
  if Hashtbl.length t.suspected > 0 then Hashtbl.remove t.suspected eid

(* Feed an RTT sample to the estimator and mirror it out. *)
let observe_rtt t sample =
  Rto.observe t.rto sample;
  match (t.m_rtt_est, Rto.srtt t.rto) with
  | Some g, Some srtt -> Horus_obs.Metrics.set g (srtt *. 1e6)
  | _ -> ()

let count_retransmission t =
  t.retransmissions <- t.retransmissions + 1;
  Option.iter Horus_obs.Metrics.incr t.m_retransmits

(* A jittered deadline [attempt] backoffs out from now; counts cap
   hits as it goes. *)
let next_deadline t ~attempt =
  let base = Rto.backoff t.rto ~attempt in
  if attempt > 0 && Rto.capped t.rto ~attempt then
    Option.iter Horus_obs.Metrics.incr t.m_backoff_hit;
  now t
  +. Rto.with_jitter base ~frac:t.jitter ~u:(Horus_util.Prng.float t.env.Layer.prng 1.0)

let recv_lane t origin =
  match Hashtbl.find t.recv origin with
  | l -> l
  | exception Not_found ->
    let l =
      { cr_expected = 0; cr_ooo = Hashtbl.create 8; cr_last_nak_for = -1;
        cr_last_nak_at = -1.0; cr_nak_attempts = 0 }
    in
    Hashtbl.replace t.recv origin l;
    l

let pair_lane t peer =
  match Hashtbl.find_opt t.pairs peer with
  | Some l -> l
  | None ->
    let l =
      { pl_next_seq = 0; pl_unacked = Hashtbl.create 8; pl_unacked_lo = 0; pl_expected = 0;
        pl_ooo = Hashtbl.create 8 }
    in
    Hashtbl.replace t.pairs peer l;
    l

(* Unicast a control/retransmission message directly to the layer
   below; the NAK header is already on [m]. *)
let xmit_to t dst m = t.env.Layer.emit_down (Event.D_send ([ dst ], m))

let send_nak t ~origin ~from_seq ~to_seq =
  let lane = recv_lane t origin in
  let tnow = now t in
  (* A fresh gap is asked about at once; re-asking about the same gap
     backs off exponentially (with jitter) from the RTO estimate, with
     the static holdoff as a floor — a dead origin must not be NAKed
     at line rate. *)
  let due =
    if lane.cr_last_nak_for <> from_seq then true
    else
      let wait =
        Float.max t.nak_holdoff
          (Rto.with_jitter
             (Rto.backoff t.rto ~attempt:lane.cr_nak_attempts)
             ~frac:t.jitter
             ~u:(Horus_util.Prng.float t.env.Layer.prng 1.0))
      in
      tnow -. lane.cr_last_nak_at > wait
  in
  if due then begin
    (* Repair traffic is about to flow: not steady state. *)
    t.env.Layer.fp_invalidate ();
    if lane.cr_last_nak_for = from_seq then begin
      lane.cr_nak_attempts <- lane.cr_nak_attempts + 1;
      if Rto.capped t.rto ~attempt:lane.cr_nak_attempts then
        Option.iter Horus_obs.Metrics.incr t.m_backoff_hit
    end
    else lane.cr_nak_attempts <- 0;
    lane.cr_last_nak_for <- from_seq;
    lane.cr_last_nak_at <- tnow;
    t.naks_sent <- t.naks_sent + 1;
    let m = Msg.empty () in
    Msg.push_u32 m to_seq;
    Msg.push_u32 m from_seq;
    Msg.push_u32 m t.epoch;
    Msg.push_u8 m k_nak_cast;
    xmit_to t (Addr.endpoint origin) m
  end

let deliver t ~rank ~placeholder m meta =
  if placeholder then t.env.Layer.emit_up (Event.U_lost_message rank)
  else t.env.Layer.emit_up (Event.U_cast (rank, m, meta))

(* The gap we asked about closed: the NAK-to-repair turnaround is an
   RTT sample (noisy — the original may have merely been slow — but
   the EWMA absorbs that), and the ask counter rewinds. *)
let close_nak t lane =
  if lane.cr_last_nak_at >= 0.0 && lane.cr_expected > lane.cr_last_nak_for then begin
    observe_rtt t (now t -. lane.cr_last_nak_at);
    lane.cr_last_nak_at <- -1.0;
    lane.cr_last_nak_for <- -1;
    lane.cr_nak_attempts <- 0
  end

(* Deliver in-sequence casts from an origin's lane, draining any
   buffered successors. The common case — the next expected cast with
   nothing stashed — is delivered directly; only a cast that arrives
   ahead of a gap is stashed (and NAKs the gap). *)
let accept_cast t ~origin ~seq ~rank ~placeholder m meta =
  let lane = recv_lane t origin in
  if seq < lane.cr_expected || Hashtbl.mem lane.cr_ooo seq then
    t.duplicates <- t.duplicates + 1
  else if seq = lane.cr_expected && Hashtbl.length lane.cr_ooo = 0 then begin
    lane.cr_expected <- seq + 1;
    deliver t ~rank ~placeholder m meta;
    close_nak t lane
  end
  else begin
    Hashtbl.replace lane.cr_ooo seq
      { p_rank = rank; p_msg = m; p_meta = meta; p_placeholder = placeholder };
    if seq > lane.cr_expected then
      send_nak t ~origin ~from_seq:lane.cr_expected ~to_seq:(seq - 1);
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt lane.cr_ooo lane.cr_expected with
      | Some next ->
        Hashtbl.remove lane.cr_ooo lane.cr_expected;
        lane.cr_expected <- lane.cr_expected + 1;
        deliver t ~rank:next.p_rank ~placeholder:next.p_placeholder next.p_msg next.p_meta
      | None -> continue := false
    done;
    close_nak t lane
  end

let accept_send t ~peer ~seq (p : pending) =
  let lane = pair_lane t peer in
  (* Ack cumulatively whatever we have, even for duplicates, so lost
     acks are repaired. *)
  let ack () =
    let m = Msg.empty () in
    Msg.push_u32 m lane.pl_expected;  (* = high contiguous + 1 *)
    Msg.push_u8 m k_ack_send;
    xmit_to t (Addr.endpoint peer) m
  in
  if seq < lane.pl_expected || Hashtbl.mem lane.pl_ooo seq then begin
    t.duplicates <- t.duplicates + 1;
    ack ()
  end
  else begin
    Hashtbl.replace lane.pl_ooo seq p;
    let continue = ref true in
    while !continue do
      match Hashtbl.find_opt lane.pl_ooo lane.pl_expected with
      | Some next ->
        Hashtbl.remove lane.pl_ooo lane.pl_expected;
        lane.pl_expected <- lane.pl_expected + 1;
        (if next.p_placeholder then t.env.Layer.emit_up (Event.U_lost_message next.p_rank)
         else t.env.Layer.emit_up (Event.U_send (next.p_rank, next.p_msg, next.p_meta)));
        ()
      | None -> continue := false
    done;
    ack ()
  end

(* Garbage-collect my cast buffer: drop everything every current member
   has acknowledged — the freed seqs only, not a sweep of the buffer. *)
let gc_cast_buffer t =
  let my = my_eid t in
  let min_acked = ref max_int in
  for i = 0 to Array.length t.members - 1 do
    let eid = Addr.endpoint_id t.members.(i) in
    if eid <> my then begin
      let a = Option.value (Hashtbl.find_opt t.cast_acks eid) ~default:(-1) in
      if a < !min_acked then min_acked := a
    end
  done;
  if !min_acked < max_int then Horus_util.Seq_ring.drop_below t.cast_buffer (!min_acked + 1)

(* Log my cast [seq] for retransmission: [framed] is a frozen alias
   of the message as sent, NAK header included, which no later write
   to the sent message can reach (Msg.freeze). Bounded
   buffering (the paper: "buffers some messages ... will retransmit if
   the message is still buffered. If not, it will send a place
   holder"): beyond the limit the oldest copy is forgotten. *)
let buffer_cast t seq framed =
  Horus_util.Seq_ring.set t.cast_buffer seq framed;
  if Horus_util.Seq_ring.length t.cast_buffer > t.buffer_limit then
    Horus_util.Seq_ring.remove t.cast_buffer (Horus_util.Seq_ring.lowest t.cast_buffer)

let handle_nak_cast t ~requester m =
  let epoch = Msg.pop_u32 m in
  let from_seq = Msg.pop_u32 m in
  let to_seq = Msg.pop_u32 m in
  if epoch = t.epoch then begin
    t.env.Layer.fp_invalidate ();
    for seq = from_seq to to_seq do
      if Horus_util.Seq_ring.mem t.cast_buffer seq then begin
        count_retransmission t;
        xmit_to t (Addr.endpoint requester) (Msg.copy (Horus_util.Seq_ring.get t.cast_buffer seq))
      end
      else begin
        t.placeholders <- t.placeholders + 1;
        let ph = Msg.empty () in
        Msg.push_u32 ph seq;
        Msg.push_u32 ph epoch;
        Msg.push_u8 ph k_placeholder;
        xmit_to t (Addr.endpoint requester) ph
      end
    done
  end

let status_message t =
  let m = Msg.empty () in
  let entries = ref [] in
  (* My own cast high-water mark, so receivers can detect trailing
     gaps. *)
  entries := (my_eid t, t.cast_next_seq) :: !entries;
  Hashtbl.iter (fun origin lane -> entries := (origin, lane.cr_expected) :: !entries) t.recv;
  let entries = List.sort_uniq compare !entries in
  List.iter
    (fun (eid, high) ->
       Msg.push_u32 m high;
       Msg.push_u32 m eid)
    (List.rev entries);
  Msg.push_u16 m (List.length entries);
  Msg.push_u32 m t.epoch;
  Msg.push_u8 m k_status;
  m

let handle_status t ~src m =
  let epoch = Msg.pop_u32 m in
  let n = Msg.pop_u16 m in
  let my = my_eid t in
  for _ = 1 to n do
    let eid = Msg.pop_u32 m in
    let high = Msg.pop_u32 m in
    if epoch = t.epoch then begin
      if eid = my then begin
        (* src has contiguously received my casts below [high]. *)
        let prev = Option.value (Hashtbl.find_opt t.cast_acks src) ~default:(-1) in
        if high - 1 > prev then Hashtbl.replace t.cast_acks src (high - 1)
      end
      else if eid = src then begin
        (* src has itself cast up to [high]; nak if we are behind. *)
        let lane = recv_lane t src in
        if high > lane.cr_expected then
          send_nak t ~origin:src ~from_seq:lane.cr_expected ~to_seq:(high - 1)
      end
    end
  done;
  if epoch = t.epoch then gc_cast_buffer t

(* Retransmit overdue unacked pair data (positive-ack scheme). Each
   entry carries its own deadline: first retransmission one RTO after
   the send, then doubling with jitter up to the cap — not the old
   blanket resend of everything every status period. *)
let retransmit_pairs t =
  let tnow = now t in
  Hashtbl.iter
    (fun peer lane ->
       Hashtbl.iter
         (fun _seq u ->
            if tnow >= u.u_due then begin
              u.u_attempts <- u.u_attempts + 1;
              u.u_due <- next_deadline t ~attempt:u.u_attempts;
              u.u_last_tx <- tnow;
              count_retransmission t;
              xmit_to t (Addr.endpoint peer) (Msg.copy u.u_msg)
            end)
         lane.pl_unacked)
    t.pairs

let check_failures t =
  let tnow = now t in
  let my = my_eid t in
  Array.iter
    (fun member ->
       let eid = Addr.endpoint_id member in
       if eid <> my && not (Hashtbl.mem t.suspected eid) then begin
         let last =
           match Hashtbl.find t.last_heard eid with
           | c -> c.at
           | exception Not_found ->
             Hashtbl.replace t.last_heard eid { at = tnow };
             tnow
         in
         if tnow -. last > t.suspect_after then begin
           Hashtbl.replace t.suspected eid ();
           t.env.Layer.trace ~category:"suspect" (Addr.endpoint_to_string member);
           t.env.Layer.emit_up (Event.U_problem member)
         end
       end)
    t.members

let on_timer t () =
  if Array.length t.members > 1 then t.env.Layer.emit_down (Event.D_cast (status_message t));
  retransmit_pairs t;
  check_failures t

(* Epoch change: new view installed. Cast lanes reset; pair lanes
   survive. Future-epoch casts buffered earlier are replayed. *)
let change_epoch t ~epoch ~members =
  if epoch <> t.epoch || t.members = [||] then begin
    t.epoch <- epoch;
    t.members <- members;
    (* Fresh grace period for every member of the new view: stale
       silence from before the install (e.g. across a partition that
       just merged) must not count against anyone. *)
    let tnow = now t in
    Array.iter (fun m -> Hashtbl.replace t.last_heard (Addr.endpoint_id m) { at = tnow }) members;
    Hashtbl.reset t.suspected;
    t.cast_next_seq <- 0;
    Horus_util.Seq_ring.clear t.cast_buffer;
    Hashtbl.reset t.cast_acks;
    Hashtbl.reset t.recv;
    let replay = List.filter (fun (_, e, _, _) -> e = epoch) (List.rev t.future_list) in
    t.future_list <- List.filter (fun (_, e, _, _) -> e > epoch) t.future_list;
    List.iter
      (fun (origin, _, seq, p) ->
         accept_cast t ~origin ~seq ~rank:p.p_rank ~placeholder:p.p_placeholder p.p_msg p.p_meta)
      replay
  end
  else t.members <- members

let handle_down t (ev : Event.down) =
  match ev with
  | Event.D_cast m ->
    let seq = t.cast_next_seq in
    t.cast_next_seq <- seq + 1;
    Msg.push_u32 m seq;
    Msg.push_u32 m t.epoch;
    Msg.push_u8 m k_data_cast;
    buffer_cast t seq (Msg.freeze m);
    t.env.Layer.emit_down (Event.D_cast m)
  | Event.D_send (dsts, m) ->
    (* Fan a subset send out into per-pair sequenced unicasts. *)
    List.iter
      (fun dst ->
         let peer = Addr.endpoint_id dst in
         let body = Msg.copy m in
         if peer = my_eid t then begin
           Msg.push_u32 body 0;
           Msg.push_u8 body k_data_send;
           t.env.Layer.emit_down (Event.D_send ([ dst ], body))
         end
         else begin
           let lane = pair_lane t peer in
           let seq = lane.pl_next_seq in
           lane.pl_next_seq <- seq + 1;
           Msg.push_u32 body seq;
           Msg.push_u8 body k_data_send;
           let tnow = now t in
           Hashtbl.replace lane.pl_unacked seq
             { u_msg = Msg.freeze body; u_sent_at = tnow; u_attempts = 0;
               u_due = next_deadline t ~attempt:0; u_last_tx = tnow };
           (* Bounded in-flight window: an unreachable peer must not
              grow the lane without limit. Evicted messages are simply
              no longer retransmitted; the layers above (membership
              flush, merge watchdogs) own end-to-end recovery. *)
           if Hashtbl.length lane.pl_unacked > t.pair_buffer_limit then begin
             Hashtbl.remove lane.pl_unacked lane.pl_unacked_lo;
             lane.pl_unacked_lo <- lane.pl_unacked_lo + 1
           end;
           t.env.Layer.emit_down (Event.D_send ([ dst ], body))
         end)
      dsts
  | Event.D_view v ->
    change_epoch t ~epoch:(View.ltime v) ~members:(View.members_array v);
    t.env.Layer.emit_down ev
  | Event.D_join _ | Event.D_ack _ | Event.D_stable _ | Event.D_flush _ | Event.D_flush_ok
  | Event.D_merge _ | Event.D_merge_granted _ | Event.D_merge_denied _ | Event.D_suspect _
  | Event.D_leave | Event.D_dump ->
    t.env.Layer.emit_down ev

let handle_data t ~src ~rank ~meta m ~(is_send : bool) =
  if is_send then begin
    let seq = Msg.pop_u32 m in
    if src = my_eid t then
      (* Loopback sends bypass lanes (seq field is zero). *)
      t.env.Layer.emit_up (Event.U_send (rank, m, meta))
    else
      accept_send t ~peer:src ~seq { p_rank = rank; p_msg = m; p_meta = meta; p_placeholder = false }
  end
  else begin
    let epoch = Msg.pop_u32 m in
    let seq = Msg.pop_u32 m in
    if epoch = t.epoch then accept_cast t ~origin:src ~seq ~rank ~placeholder:false m meta
    else if epoch > t.epoch then
      t.future_list <-
        (src, epoch, seq, { p_rank = rank; p_msg = m; p_meta = meta; p_placeholder = false })
        :: t.future_list
    (* stale epoch: drop *)
  end

let handle_up t (ev : Event.up) =
  match ev with
  | Event.U_cast (rank, m, meta) | Event.U_send (rank, m, meta) ->
    (try
       let kind = Msg.pop_u8 m in
       let src = Com.src_of meta in
       heard t src;
       if kind = k_data_cast then handle_data t ~src ~rank ~meta m ~is_send:false
       else if kind = k_data_send then handle_data t ~src ~rank ~meta m ~is_send:true
       else if kind = k_nak_cast then handle_nak_cast t ~requester:src m
       else if kind = k_status then handle_status t ~src m
       else if kind = k_placeholder then begin
         let epoch = Msg.pop_u32 m in
         let seq = Msg.pop_u32 m in
         if epoch = t.epoch then accept_cast t ~origin:src ~seq ~rank ~placeholder:true m meta
       end
       else if kind = k_ack_send then begin
         let high = Msg.pop_u32 m in
         (match Hashtbl.find_opt t.pairs src with
          | Some lane ->
            let tnow = now t in
            (* In place, in the table's own iteration order: the RTT
               samples feed an EWMA, so their order matters. *)
            if high > lane.pl_unacked_lo then begin
              Hashtbl.filter_map_inplace
                (fun seq u ->
                   if seq < high then begin
                     (* Karn's rule: only never-retransmitted messages
                        yield RTT samples — a retransmitted one's ack
                        is ambiguous about which copy it answers. *)
                     if u.u_attempts = 0 then observe_rtt t (tnow -. u.u_sent_at);
                     None
                   end
                   else Some u)
                lane.pl_unacked;
              lane.pl_unacked_lo <- Int.min high lane.pl_next_seq
            end;
            (* Fast retransmit: the peer acks on every arrival, so an
               ack naming a seq we still hold means later messages got
               through while this one is missing — the peer is stuck
               behind the gap. Resend now rather than waiting out a
               backoff a partition may have inflated to the cap
               (rate-limited by min_rto against ack bursts). *)
            (match Hashtbl.find_opt lane.pl_unacked high with
             | Some u when tnow -. u.u_last_tx >= t.rto.Rto.min_rto ->
               u.u_attempts <- u.u_attempts + 1;
               u.u_due <- next_deadline t ~attempt:u.u_attempts;
               u.u_last_tx <- tnow;
               count_retransmission t;
               xmit_to t (Addr.endpoint src) (Msg.copy u.u_msg)
             | Some _ | None -> ())
          | None -> ())
       end
       else t.env.Layer.trace ~category:"dropped" (Printf.sprintf "unknown kind %d" kind)
     with Msg.Truncated what ->
       t.env.Layer.trace ~category:"dropped" ("truncated: " ^ what))
  | Event.U_view v ->
    (* A view fabricated below (no membership layer underneath us in
       this stack position): synchronize lanes, then pass it on. *)
    change_epoch t ~epoch:(View.ltime v) ~members:(View.members_array v);
    t.env.Layer.emit_up ev
  | Event.U_problem _ | Event.U_merge_request _ | Event.U_merge_denied _ | Event.U_flush _
  | Event.U_flush_ok _ | Event.U_leave _ | Event.U_lost_message _ | Event.U_stable _
  | Event.U_system_error _ | Event.U_exit | Event.U_destroy | Event.U_packet _ ->
    t.env.Layer.emit_up ev

let create params env =
  let status_period = Params.get_float params "status_period" ~default:0.05 in
  let metrics = env.Layer.metrics in
  let t =
    { env;
      status_period;
      suspect_after = Params.get_float params "suspect_after" ~default:(status_period *. 5.0);
      nak_holdoff = Params.get_float params "nak_holdoff" ~default:(status_period /. 2.0);
      buffer_limit = Params.get_int params "buffer_limit" ~default:max_int;
      pair_buffer_limit = Params.get_int params "pair_buffer_limit" ~default:max_int;
      rto =
        Rto.create
          ~init:(Params.get_float params "rto_init" ~default:(status_period *. 2.0))
          ~min_rto:(Params.get_float params "rto_min" ~default:(status_period /. 2.0))
          ~max_rto:(Params.get_float params "rto_max" ~default:2.0)
          ();
      jitter = Params.get_float params "backoff_jitter" ~default:0.1;
      m_retransmits =
        Option.map (fun m -> Horus_obs.Metrics.counter m "nak.retransmits") metrics;
      m_rtt_est = Option.map (fun m -> Horus_obs.Metrics.gauge m "nak.rtt_est_us") metrics;
      m_backoff_hit =
        Option.map (fun m -> Horus_obs.Metrics.counter m "nak.backoff_max_hit") metrics;
      epoch = 0;
      members = [||];
      cast_next_seq = 0;
      cast_buffer = Horus_util.Seq_ring.create ~dummy:(Msg.empty ());
      cast_acks = Hashtbl.create 8;
      recv = Hashtbl.create 8;
      future_list = [];
      pairs = Hashtbl.create 8;
      last_heard = Hashtbl.create 8;
      suspected = Hashtbl.create 8;
      stop_timer = (fun () -> ());
      naks_sent = 0;
      retransmissions = 0;
      placeholders = 0;
      duplicates = 0 }
  in
  t.stop_timer <- Layer.every env ~period:status_period (on_timer t);
  (* Fused form. Sends always fuse (a cast is stamped and buffered
     unconditionally). Deliveries fuse only for an exactly-in-order
     data cast of the current epoch with nothing buffered out of
     order — i.e. no gap, no NAK, no drain loop — and the commit
     replays the full path's effects: liveness bookkeeping, lane
     advance, and the RTT close-out for a gap a late original just
     closed. The check stashes what the commit needs; the two always
     run back to back within one fused delivery. *)
  env.Layer.fp_register (fun () ->
      let chk_src = ref (-1) in
      let chk_seq = ref 0 in
      Some
        { Layer.fp_send_ready = (fun ~len:_ -> true);
          fp_send =
            (fun seg ->
               let seq = t.cast_next_seq in
               t.cast_next_seq <- seq + 1;
               Seg.push_u32 seg seq;
               Seg.push_u32 seg t.epoch;
               Seg.push_u8 seg k_data_cast;
               buffer_cast t seq (Seg.to_msg seg));
          fp_deliver_check =
            (fun ~rank:_ ~meta m ->
               Msg.pop_u8 m = k_data_cast
               && Msg.pop_u32 m = t.epoch
               && begin
                 let seq = Msg.pop_u32 m in
                 let src = Com.src_of meta in
                 let lane = recv_lane t src in
                 seq = lane.cr_expected
                 && Hashtbl.length lane.cr_ooo = 0
                 && begin
                   chk_src := src;
                   chk_seq := seq;
                   true
                 end
               end);
          fp_deliver_commit =
            (fun ~rank:_ ~meta:_ _ ->
               let src = !chk_src in
               heard t src;
               let lane = recv_lane t src in
               lane.cr_expected <- !chk_seq + 1;
               close_nak t lane) });
  { Layer.name = "NAK";
    handle_down = handle_down t;
    handle_up = handle_up t;
    dump =
      (fun () ->
         [ Printf.sprintf "epoch=%d next_seq=%d buffered=%d" t.epoch t.cast_next_seq
             (Horus_util.Seq_ring.length t.cast_buffer);
           Printf.sprintf "naks=%d rexmit=%d placeholders=%d dups=%d" t.naks_sent
             t.retransmissions t.placeholders t.duplicates;
           Printf.sprintf "pairs=%d unacked=%d rto=%.3f" (Hashtbl.length t.pairs)
             (Hashtbl.fold (fun _ l acc -> acc + Hashtbl.length l.pl_unacked) t.pairs 0)
             (Rto.rto t.rto) ]);
    inert = false;
    stop = (fun () -> t.stop_timer ()) }
