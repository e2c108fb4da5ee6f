(* COM: the bottom adapter layer (Section 7).

   COM translates the raw best-effort network (property P1) into the
   Common Protocol Interface. Going down, it stamps each message with a
   small envelope — magic, length, kind, source endpoint — serialises
   it once, and hands that one datagram to the transport for every
   destination. Coming up, it verifies the envelope
   (P10: gross corruption, truncation and byte reordering are caught by
   the magic/length check), recovers the source address (P11), filters
   casts from endpoints outside the current destination set, and
   delivers U_cast / U_send with the source's rank.

   The destination set is a plain list installed with the view
   downcall; COM attaches no consistency semantics to it (Section 7:
   "a view at these layers is nothing but the set of destination
   endpoints for multicast messages"). *)

open Horus_msg
open Horus_hcpi

let magic = 0x4855  (* "HU" *)

type kind = Cast | Send

let kind_code = function Cast -> 0 | Send -> 1

let kind_of_code = function 0 -> Some Cast | 1 -> Some Send | _ -> None

type state = {
  env : Layer.env;
  filter : bool;          (* drop casts from non-members *)
  loopback : bool;        (* deliver own casts locally, without the net *)
  mutable dests : Addr.endpoint array;  (* current destination set *)
  mutable peers : Addr.endpoint list;   (* [dests] without ourselves *)
  mutable sent : int;
  mutable received : int;
  mutable rejected : int; (* bad envelope *)
  mutable filtered : int; (* spurious casts *)
}

(* meta key under which COM exposes the raw source endpoint id; layers
   above use it when the source is outside the view (rank -1). *)
let src_meta = "src_eid"

let push_envelope t ~kind m =
  Wire.push_endpoint m t.env.Layer.endpoint;
  Msg.push_u8 m (kind_code kind);
  Msg.push_u16 m (Msg.length m land 0xffff);
  Msg.push_u16 m magic

let set_dests t dests =
  let self = t.env.Layer.endpoint in
  t.dests <- dests;
  t.peers <- List.filter (fun d -> not (Addr.equal_endpoint d self)) (Array.to_list dests)

let xmit t ~dsts wire =
  if dsts <> [] then begin
    t.sent <- t.sent + List.length dsts;
    t.env.Layer.transport.Layer.xmit ~dsts wire
  end

let rank_of_dest t src =
  let rec loop i =
    if i >= Array.length t.dests then None
    else if Addr.equal_endpoint t.dests.(i) src then Some i
    else loop (i + 1)
  in
  loop 0

let deliver_local t ~kind m =
  (* Loopback copy of an outgoing message: what the network would have
     delivered to ourselves, without the latency. *)
  let rank =
    match rank_of_dest t t.env.Layer.endpoint with
    | Some r -> r
    | None -> -1
  in
  let meta = [ (src_meta, Addr.endpoint_id t.env.Layer.endpoint) ] in
  match kind with
  | Cast -> t.env.Layer.emit_up (Event.U_cast (rank, m, meta))
  | Send -> t.env.Layer.emit_up (Event.U_send (rank, m, meta))

let handle_down t (ev : Event.down) =
  match ev with
  | Event.D_cast m ->
    let self = t.env.Layer.endpoint in
    let self_is_dest = Array.exists (Addr.equal_endpoint self) t.dests in
    let local = if t.loopback && self_is_dest then Some (Msg.copy m) else None in
    push_envelope t ~kind:Cast m;
    xmit t ~dsts:t.peers (Msg.to_bytes m);
    Option.iter (fun l -> deliver_local t ~kind:Cast l) local
  | Event.D_send (dsts, m) ->
    let self = t.env.Layer.endpoint in
    let local =
      if t.loopback && List.exists (Addr.equal_endpoint self) dsts then Some (Msg.copy m)
      else None
    in
    push_envelope t ~kind:Send m;
    xmit t
      ~dsts:(List.filter (fun dst -> not (Addr.equal_endpoint dst self)) dsts)
      (Msg.to_bytes m);
    Option.iter (fun l -> deliver_local t ~kind:Send l) local
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
    t.env.Layer.trace ~category:"absorbed" (Event.down_name ev)
  | Event.D_merge _ | Event.D_merge_granted _ | Event.D_merge_denied _
  | Event.D_flush _ | Event.D_suspect _ ->
    (* Membership downcalls reaching the floor mean the stack has no
       membership layer: report it (Table 2's SYSTEM_ERROR). *)
    t.env.Layer.trace ~category:"absorbed" (Event.down_name ev);
    t.env.Layer.emit_up
      (Event.U_system_error
         (Printf.sprintf "%s downcall requires a membership layer" (Event.down_name ev)))

let handle_up t (ev : Event.up) =
  match ev with
  | Event.U_packet (_node, m) ->
    t.received <- t.received + 1;
    let ok =
      try
        let mg = Msg.pop_u16 m in
        let len = Msg.pop_u16 m in
        if mg <> magic || len <> Msg.length m land 0xffff then None
        else
          let kind = kind_of_code (Msg.pop_u8 m) in
          let src = Wire.pop_endpoint m in
          match kind with
          | None -> None
          | Some k -> Some (k, src)
      with Msg.Truncated _ -> None
    in
    (match ok with
     | None ->
       t.rejected <- t.rejected + 1;
       t.env.Layer.trace ~category:"rejected" "bad envelope"
     | Some (kind, src) ->
       let rank = rank_of_dest t src in
       let meta = [ (src_meta, Addr.endpoint_id src) ] in
       (match (kind, rank) with
        | Cast, None when t.filter ->
          t.filtered <- t.filtered + 1;
          t.env.Layer.trace ~category:"filtered"
            (Format.asprintf "cast from non-member %a" Addr.pp_endpoint src)
        | Cast, r ->
          t.env.Layer.emit_up (Event.U_cast (Option.value r ~default:(-1), m, meta))
        | Send, r ->
          t.env.Layer.emit_up (Event.U_send (Option.value r ~default:(-1), m, meta))))
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
    Printf.sprintf "sent=%d received=%d rejected=%d filtered=%d" t.sent t.received t.rejected
      t.filtered ]

(* Fused form (bottom adapter): frame-and-transmit on the way down,
   envelope recognition on the way up. The compile captures the
   destination set; the physical-equality guard in [fpb_send_ready]
   catches replacements no view event announces (D_join, D_leave).
   As on the full path, the gathered wire image is one datagram handed
   to the transport for every destination. *)
let compile_fastpath t () =
  if Array.length t.dests = 0 then None
  else begin
    let dests = t.dests in
    let peers = t.peers in
    let self = t.env.Layer.endpoint in
    let self_eid = Addr.endpoint_id self in
    let self_rank = rank_of_dest t self in
    let local_wanted = t.loopback && self_rank <> None in
    let send_meta = [ (src_meta, self_eid) ] in
    Some
      { Layer.fpb_send_ready = (fun () -> t.dests == dests);
        fpb_cast =
          (fun seg ->
             (* local copy before the envelope, as in handle_down *)
             let local = if local_wanted then Some (Seg.to_msg seg) else None in
             Seg.push_u32 seg self_eid;
             Seg.push_u8 seg (kind_code Cast);
             Seg.push_u16 seg (Seg.length seg land 0xffff);
             Seg.push_u16 seg magic;
             xmit t ~dsts:peers (Seg.to_wire seg);
             match (local, self_rank) with
             | Some lm, Some r -> Some (lm, r, send_meta)
             | _ -> None);
        fpb_parse =
          (fun m ->
             let mg = Msg.pop_u16 m in
             let len = Msg.pop_u16 m in
             if mg <> magic || len <> Msg.length m land 0xffff then None
             else if Msg.pop_u8 m <> kind_code Cast then None
             else
               let src = Wire.pop_endpoint m in
               (* members only: rank -1 (and the filter) stay on the
                  full path *)
               match rank_of_dest t src with
               | None -> None
               | Some r -> Some (r, [ (src_meta, Addr.endpoint_id src) ]));
        fpb_parsed = (fun () -> t.received <- t.received + 1) }
  end

let create params env =
  let t =
    { env;
      filter = Params.get_bool params "filter" ~default:true;
      loopback = Params.get_bool params "loopback" ~default:true;
      dests = [||];
      peers = [];
      sent = 0;
      received = 0;
      rejected = 0;
      filtered = 0 }
  in
  env.Layer.fp_register_bottom (compile_fastpath t);
  { Layer.name = "COM";
    handle_down = handle_down t;
    handle_up = handle_up t;
    dump = dump t;
    inert = false;
    stop = (fun () -> ()) }
