(* COM: the bottom adapter layer (Section 7).

   COM translates the raw best-effort network (property P1) into the
   Common Protocol Interface. Going down, it stamps each message with a
   small envelope — magic, length, kind — and hands the message to the
   transport, which frames its live bytes once, as one datagram for
   every destination. The sender's own copy is the message itself:
   once the transport returns, COM strips the envelope again and
   delivers it locally. Coming up, it verifies the envelope (P10: gross
   corruption, truncation and byte reordering are caught by the
   magic/length check), recovers the source address (P11) from the
   packet's node, which every attachment sets to the sender's endpoint
   id (so the envelope need not repeat it), filters casts from
   endpoints outside the current destination set, and delivers U_cast
   / U_send with the source's rank.

   The destination set is a plain list installed with the view
   downcall; COM attaches no consistency semantics to it (Section 7:
   "a view at these layers is nothing but the set of destination
   endpoints for multicast messages"). The per-destination delivery
   metas are immutable, so they are built with the destination set and
   shared by every packet. *)

open Horus_msg
open Horus_hcpi

(* Not the 9-byte envelope's 0x4855: a peer that still stamps its
   source into the envelope is rejected, not misparsed. *)
let magic = 0x4835  (* "H5" *)

type kind = Cast | Send

let kind_code = function Cast -> 0 | Send -> 1

type state = {
  env : Layer.env;
  filter : bool;          (* drop casts from non-members *)
  loopback : bool;        (* deliver own casts locally, without the net *)
  mutable dests : Addr.endpoint array;  (* current destination set *)
  mutable peers : Addr.endpoint list;   (* [dests] without ourselves *)
  mutable self_rank : int;              (* our index in [dests], or -1 *)
  mutable metas : Event.meta array;     (* per dest: its delivery meta *)
  self_meta : Event.meta;
  mutable sent : int;
  mutable received : int;
  mutable filtered : int; (* spurious casts *)
}

(* meta key under which COM exposes the raw source endpoint id; layers
   above use it when the source is outside the view (rank -1). *)
let src_meta = "src_eid"

let meta_of eid : Event.meta = [ (src_meta, eid) ]

let rec src_of (meta : Event.meta) =
  match meta with
  | [] -> -1
  | (k, v) :: rest -> if String.equal k src_meta then v else src_of rest

(* The envelope, outermost field first: magic u16, length u16, kind
   u8. *)
let push_envelope ~kind m =
  Msg.push_u8 m (kind_code kind);
  Msg.push_u16 m (Msg.length m land 0xffff);
  Msg.push_u16 m magic

(* Strip an envelope we pushed ourselves, leaving the message as the
   layer above handed it down. *)
let strip_envelope m =
  ignore (Msg.pop_u16 m);
  ignore (Msg.pop_u16 m);
  ignore (Msg.pop_u8 m)

let rec rank_in dests eid i =
  if i >= Array.length dests then -1
  else if Addr.endpoint_id dests.(i) = eid then i
  else rank_in dests eid (i + 1)

(* The delivery metas are immutable lists, so one per destination is
   built here, once per view, and shared by every packet from it. *)
let set_dests t dests =
  let self = t.env.Layer.endpoint in
  t.dests <- dests;
  t.peers <- List.filter (fun d -> not (Addr.equal_endpoint d self)) (Array.to_list dests);
  t.self_rank <- rank_in dests (Addr.endpoint_id self) 0;
  t.metas <-
    Array.map
      (fun d -> if Addr.equal_endpoint d self then t.self_meta else meta_of (Addr.endpoint_id d))
      dests

let xmit t ~dsts m =
  if dsts <> [] then begin
    t.sent <- t.sent + List.length dsts;
    t.env.Layer.transport.Layer.xmit ~dsts m
  end

(* Loopback of an outgoing message: what the network would have
   delivered to ourselves, without the latency. The transport has
   already framed its own copy, so the message itself, envelope
   stripped, is the delivery. *)
let deliver_local t ~kind m =
  strip_envelope m;
  match kind with
  | Cast -> t.env.Layer.emit_up (Event.U_cast (t.self_rank, m, t.self_meta))
  | Send -> t.env.Layer.emit_up (Event.U_send (t.self_rank, m, t.self_meta))

(* A cast to the current destination set: the full path's handler and
   the fused path's bottom, both. *)
let cast t m =
  push_envelope ~kind:Cast m;
  xmit t ~dsts:t.peers m;
  if t.loopback && t.self_rank >= 0 then deliver_local t ~kind:Cast m

let handle_down t (ev : Event.down) =
  match ev with
  | Event.D_cast m -> cast t m
  | Event.D_send (dsts, m) ->
    let self = t.env.Layer.endpoint in
    let local = t.loopback && List.exists (Addr.equal_endpoint self) dsts in
    push_envelope ~kind:Send m;
    xmit t
      ~dsts:(List.filter (fun dst -> not (Addr.equal_endpoint dst self)) dsts)
      m;
    if local then deliver_local t ~kind:Send m
  | Event.D_view v ->
    set_dests t (View.members_array v)
  | Event.D_join contact ->
    (* Without a membership layer above, COM fabricates a best-effort
       destination set: ourselves, plus the contact if given. No
       consistency is implied. *)
    let self = t.env.Layer.endpoint in
    let members =
      match contact with
      | None -> [ self ]
      | Some c ->
        if Addr.equal_endpoint c self then [ self ]
        else List.sort Addr.compare_endpoint [ c; self ]
    in
    let v = View.create ~group:t.env.Layer.group ~ltime:0 ~members in
    set_dests t (View.members_array v);
    t.env.Layer.emit_up (Event.U_view v)
  | Event.D_leave ->
    set_dests t [||];
    t.env.Layer.emit_up Event.U_exit
  | Event.D_dump -> ()
  | Event.D_ack _ | Event.D_stable _ | Event.D_flush_ok ->
    (* Stability/flush cooperation downcalls are harmless without a
       consumer; absorb quietly (stability layers are optional). *)
    ()
  | Event.D_merge _ | Event.D_merge_granted _ | Event.D_merge_denied _
  | Event.D_flush _ | Event.D_suspect _ ->
    (* Membership downcalls reaching the floor mean the stack has no
       membership layer: report it (Table 2's SYSTEM_ERROR). *)
    t.env.Layer.emit_up
      (Event.U_system_error
         (Printf.sprintf "%s downcall requires a membership layer" (Event.down_name ev)))

(* The envelope's kind code, or -1 if the envelope is bad; a packet
   too short for one raises Msg.Truncated, which the stack counts. *)
let pop_envelope_kind m =
  let mg = Msg.pop_u16 m in
  let len = Msg.pop_u16 m in
  if mg <> magic || len <> Msg.length m land 0xffff then -1
  else
    let k = Msg.pop_u8 m in
    if k = kind_code Cast || k = kind_code Send then k else -1

let handle_up t (ev : Event.up) =
  match ev with
  | Event.U_packet (src, m) ->
    t.received <- t.received + 1;
    let k = pop_envelope_kind m in
    if k < 0 then t.env.Layer.reject ()
    else begin
      let rank = rank_in t.dests src 0 in
      let meta = if rank >= 0 then t.metas.(rank) else meta_of src in
      if k = kind_code Send then t.env.Layer.emit_up (Event.U_send (rank, m, meta))
      else if rank < 0 && t.filter then t.filtered <- t.filtered + 1
      else t.env.Layer.emit_up (Event.U_cast (rank, m, meta))
    end
  | Event.U_view _ | Event.U_cast _ | Event.U_send _ | Event.U_merge_request _
  | Event.U_merge_denied _ | Event.U_flush _ | Event.U_flush_ok _ | Event.U_leave _
  | Event.U_lost_message _ | Event.U_stable _ | Event.U_problem _
  | Event.U_system_error _ | Event.U_exit | Event.U_destroy ->
    (* Nothing sits below COM that could produce these; pass defensively. *)
    t.env.Layer.emit_up ev

let dump t () =
  [ Format.asprintf "dests=[%a]"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ") Addr.pp_endpoint)
      (Array.to_list t.dests);
    Printf.sprintf "sent=%d received=%d filtered=%d" t.sent t.received t.filtered ]

(* Fused form (bottom adapter): the full path's [cast] on the way
   down, envelope recognition on the way up. The physical-equality
   guard in [fpb_send_ready] keeps the path to the destination set it
   was compiled for — [set_dests] replaces [dests], [peers] and
   [self_rank] together — and catches replacements no view event
   announces (D_join, D_leave). *)
let compile_fastpath t () =
  if Array.length t.dests = 0 then None
  else begin
    let dests = t.dests in
    Some
      { Layer.fpb_send_ready = (fun () -> t.dests == dests);
        fpb_cast = cast t;
        fpb_parse =
          (fun ~src m ->
             (* members' casts only: rank -1 (and the filter) stay on
                the full path *)
             if pop_envelope_kind m = kind_code Cast then rank_in t.dests src 0 else -1);
        fpb_parsed =
          (fun rank ->
             t.received <- t.received + 1;
             t.metas.(rank)) }
  end

let create params env =
  let t =
    { env;
      filter = Params.get_bool params "filter" ~default:true;
      loopback = Params.get_bool params "loopback" ~default:true;
      dests = [||];
      peers = [];
      self_rank = -1;
      metas = [||];
      self_meta = meta_of (Addr.endpoint_id env.Layer.endpoint);
      sent = 0;
      received = 0;
      filtered = 0 }
  in
  env.Layer.fp_register_bottom (compile_fastpath t);
  { Layer.name = "COM";
    handle_down = handle_down t;
    handle_up = handle_up t;
    dump = dump t;
    inert = false;
    stop = (fun () -> ()) }
