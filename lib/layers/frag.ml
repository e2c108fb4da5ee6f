(* FRAG: fragmentation and reassembly of large messages (Section 7).

   Messages longer than the fragment size are split; each fragment
   carries a single "more fragments follow" flag — the one bit of
   header the paper measures in Section 10. Reassembly relies on the
   FIFO ordering of the layers below: fragments of one origin arrive in
   order and are concatenated until the flag clears.

   Casts and subset sends reassemble independently per origin, since a
   member may interleave the two. *)

open Horus_msg
open Horus_hcpi

type state = {
  env : Layer.env;
  frag_size : int;
  cast_partial : (int, Msg.t list) Hashtbl.t;  (* origin eid -> fragments so far, newest first *)
  send_partial : (int, Msg.t list) Hashtbl.t;
  mutable fragmented : int;
  mutable reassembled : int;
}

(* A message that fits in one fragment is only flagged as the last
   one, and [fragment] returns false: the caller passes on the event it
   was given. A longer one is cut front to back into fragments of at
   most [frag_size] payload bytes, each copied once out of [m]'s buffer
   and tagged with the more-flag, and emitted downward via [send]. *)
let fragment t m ~send =
  let total = Msg.length m in
  if total <= t.frag_size then begin
    Msg.push_bool m false;
    false
  end
  else begin
    t.fragmented <- t.fragmented + 1;
    let buf, off, _ = Msg.view m in
    let rec loop pos =
      let len = Int.min t.frag_size (total - pos) in
      let f = Msg.of_sub buf ~off:(off + pos) ~len in
      let more = pos + len < total in
      Msg.push_bool f more;
      send f;
      if more then loop (pos + len)
    in
    loop 0;
    true
  end

(* Fragments are kept as they arrived (this layer is their last
   reader) and joined with one blit each when the last one lands. *)
let reassemble t table ~key ~more m =
  let pending = Hashtbl.find_opt table key in
  if more then begin
    Hashtbl.replace table key (m :: Option.value pending ~default:[]);
    None
  end
  else
    match pending with
    | None -> Some m  (* unfragmented, the common case *)
    | Some parts ->
      Hashtbl.remove table key;
      t.reassembled <- t.reassembled + 1;
      Some (Msg.concat (List.rev (m :: parts)))

let create params env =
  let t =
    { env;
      frag_size = Params.get_int params "frag_size" ~default:1024;
      cast_partial = Hashtbl.create 8;
      send_partial = Hashtbl.create 8;
      fragmented = 0;
      reassembled = 0 }
  in
  let cast_down f = env.Layer.emit_down (Event.D_cast f) in
  let handle_down (ev : Event.down) =
    match ev with
    | Event.D_cast m -> if not (fragment t m ~send:cast_down) then env.Layer.emit_down ev
    | Event.D_send (dsts, m) ->
      (* No copy here: a fragment is already fresh from [of_sub], and
         NAK copies a send once per destination. *)
      if not (fragment t m ~send:(fun f -> env.Layer.emit_down (Event.D_send (dsts, f)))) then
        env.Layer.emit_down ev
    | Event.D_view _ ->
      (* New destination set: no cross-view reassembly. *)
      Hashtbl.reset t.cast_partial;
      Hashtbl.reset t.send_partial;
      env.Layer.emit_down ev
    | _ -> env.Layer.emit_down ev
  in
  (* Fused form: single-fragment casts only. The send check sees the
     application payload length, before upper layers add headers, so
     it keeps a conservative 64-byte slack — whenever the fused check
     passes, the full path would not have fragmented either (and a
     false negative merely falls back). Delivery fuses the common
     unfragmented case: more-flag clear and no partial pending from
     that origin. *)
  env.Layer.fp_register (fun () ->
      Some
        { Layer.fp_send_ready = (fun ~len -> len + 64 <= t.frag_size);
          fp_send = (fun m -> Msg.push_bool m false);
          fp_deliver_check =
            (fun ~src m -> (not (Msg.pop_bool m)) && not (Hashtbl.mem t.cast_partial src));
          fp_deliver_commit = ignore });
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (rank, m, meta) ->
      let more = Msg.pop_bool m in
      let key = Com.src_of meta in
      (* An unfragmented cast with nothing pending from its origin
         — the common case — passes straight up. *)
      if (not more) && not (Hashtbl.mem t.cast_partial key) then env.Layer.emit_up ev
      else
        (match reassemble t t.cast_partial ~key ~more m with
         | Some whole -> env.Layer.emit_up (Event.U_cast (rank, whole, meta))
         | None -> ())
    | Event.U_send (rank, m, meta) ->
      let more = Msg.pop_bool m in
      (match reassemble t t.send_partial ~key:(Com.src_of meta) ~more m with
       | Some whole -> env.Layer.emit_up (Event.U_send (rank, whole, meta))
       | None -> ())
    | Event.U_lost_message rank ->
      (* A fragment went missing below; any partial from that origin is
         unusable. We cannot map rank back to eid reliably here, so
         drop all partial cast state — rare and safe. *)
      Hashtbl.reset t.cast_partial;
      env.Layer.emit_up (Event.U_lost_message rank)
    | Event.U_view _ ->
      Hashtbl.reset t.cast_partial;
      Hashtbl.reset t.send_partial;
      env.Layer.emit_up ev
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "FRAG";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "frag_size=%d fragmented=%d reassembled=%d partials=%d" t.frag_size
             t.fragmented t.reassembled
             (Hashtbl.length t.cast_partial + Hashtbl.length t.send_partial) ]);
    inert = false;
    stop = (fun () -> ()) }
