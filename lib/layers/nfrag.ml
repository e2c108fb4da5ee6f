(* NFRAG: fragmentation for networks without FIFO guarantees.

   Unlike FRAG's single more-flag bit, NFRAG headers carry a message
   id, fragment index and fragment count, so fragments may arrive in
   any order (it requires only best-effort delivery plus source
   addresses, per Table 3). Loss of any fragment loses the whole
   message — reliability, if wanted, comes from stacking NAK above. *)

open Horus_msg
open Horus_hcpi

type partial = {
  parts : (int, string) Hashtbl.t;  (* idx -> chunk *)
  count : int;
  born : float;
}

type state = {
  env : Layer.env;
  frag_size : int;
  max_age : float;  (* partial assemblies older than this are abandoned *)
  mutable next_msgid : int;
  partials : (int * int * int, partial) Hashtbl.t;  (* origin, msgid, kind *)
  mutable fragmented : int;
  mutable reassembled : int;
  mutable abandoned : int;
}

let fragment t m ~send =
  let total = Msg.length m in
  let count = (total + t.frag_size - 1) / t.frag_size in
  let count = Int.max count 1 in
  let msgid = t.next_msgid in
  t.next_msgid <- t.next_msgid + 1;
  if count > 1 then t.fragmented <- t.fragmented + 1;
  let body = Msg.to_string m in
  for idx = 0 to count - 1 do
    let off = idx * t.frag_size in
    let len = Int.min t.frag_size (total - off) in
    let f = Msg.create (String.sub body off len) in
    Msg.push_u16 f count;
    Msg.push_u16 f idx;
    Msg.push_u32 f msgid;
    send f
  done

(* Abandon stale partial assemblies, in place. *)
let gc t =
  if Hashtbl.length t.partials > 0 then begin
    let tnow = Horus_sim.Engine.now t.env.Layer.engine in
    Hashtbl.filter_map_inplace
      (fun _ p ->
         if tnow -. p.born > t.max_age then begin
           t.abandoned <- t.abandoned + 1;
           None
         end
         else Some p)
      t.partials
  end

let reassemble t ~key m =
  let msgid = Msg.pop_u32 m in
  let idx = Msg.pop_u16 m in
  let count = Msg.pop_u16 m in
  if count = 1 then Some m
  else begin
    let origin, kind = key in
    let pkey = (origin, msgid, kind) in
    let p =
      match Hashtbl.find_opt t.partials pkey with
      | Some p when p.count = count -> p
      | Some _ | None ->
        let p =
          { parts = Hashtbl.create count;
            count;
            born = Horus_sim.Engine.now t.env.Layer.engine }
        in
        Hashtbl.replace t.partials pkey p;
        p
    in
    Hashtbl.replace p.parts idx (Msg.to_string m);
    if Hashtbl.length p.parts = p.count then begin
      Hashtbl.remove t.partials pkey;
      t.reassembled <- t.reassembled + 1;
      let buf = Buffer.create (p.count * t.frag_size) in
      for i = 0 to p.count - 1 do
        Buffer.add_string buf (Hashtbl.find p.parts i)
      done;
      Some (Msg.create (Buffer.contents buf))
    end
    else None
  end

let create params env =
  let t =
    { env;
      frag_size = Params.get_int params "frag_size" ~default:1024;
      max_age = Params.get_float params "max_age" ~default:5.0;
      next_msgid = 0;
      partials = Hashtbl.create 8;
      fragmented = 0;
      reassembled = 0;
      abandoned = 0 }
  in
  let handle_down (ev : Event.down) =
    match ev with
    | Event.D_cast m -> fragment t m ~send:(fun f -> env.Layer.emit_down (Event.D_cast f))
    | Event.D_send (dsts, m) ->
      fragment t m ~send:(fun f -> env.Layer.emit_down (Event.D_send (dsts, f)))
    | _ -> env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (rank, m, meta) ->
      gc t;
      (match reassemble t ~key:(Com.src_of meta, 0) m with
       | Some whole -> env.Layer.emit_up (Event.U_cast (rank, whole, meta))
       | None -> ())
    | Event.U_send (rank, m, meta) ->
      gc t;
      (match reassemble t ~key:(Com.src_of meta, 1) m with
       | Some whole -> env.Layer.emit_up (Event.U_send (rank, whole, meta))
       | None -> ())
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "NFRAG";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "fragmented=%d reassembled=%d abandoned=%d partials=%d" t.fragmented
             t.reassembled t.abandoned (Hashtbl.length t.partials) ]);
    inert = false;
    stop = (fun () -> ()) }
