(* Binds endpoints to real transport backends: the glue between
   lib/core's world/endpoint model and lib/transport's narrow waist.

   One link per world. Two binding shapes:

   - [attach]: the classic one-endpoint-per-socket wiring: a mux of
     its own whose group table holds only that endpoint's groups, and
     whose socket closes when the endpoint crashes.

   - [mux] / [attach_mux]: one socket pair carries many endpoints and
     many groups. Outgoing packets are framed as before (Frame codec:
     src endpoint, group address, CRC); incoming frames are demuxed on
     the frame [gid] through the mux's group table — populated
     automatically as stacks join groups (Endpoint.set_route_hook) —
     and routed into whichever local endpoint owns that group. One
     socket therefore holds at most one member of any given group,
     which is exactly the hierarchical layout: a machine hosts one
     member of each of many sub-groups. Raw (non-stack) protocols such
     as the directory client can claim a gid on the same socket with
     [route_raw].

   Receiving copies no byte. A datagram handed to the rx callback
   belongs to the link (the [Backend.rx] contract, on scalar and
   batched drains alike), so the stack's [Msg] adopts it in place: the
   spent frame header becomes headroom. Going out, a datagram is
   framed once and the same bytes go to every destination.

   Frames whose gid matches no local group are dropped and counted in
   the [transport.unknown_gid] metric; garbled or truncated frames are
   counted per-backend as before. Cross-shard routing happens below
   the link, in [Horus_transport.Shard.bypass] backends: a frame for a
   co-resident shard reaches that shard's link through its bypass
   backend's rx. The link registers one metrics exporter with the
   world, so snapshots grow a [transport.*] section summing every
   backend it manages. *)

open Horus_msg
module T = Horus_transport

type mux = {
  mx_backend : T.Backend.t;
  mx_peers : T.Peers.t;
  mx_groups : (int, Endpoint.t) Hashtbl.t;  (* gid -> owning local endpoint *)
  mx_raw : (int, src:string -> Bytes.t -> unit) Hashtbl.t;
      (* gid -> raw frame handler (directory client, diagnostics) *)
}

type t = {
  world : World.t;
  prefix : string;
  mutable backends : T.Backend.t list;
  mutable unknown_gid : int;  (* frames demuxed to no local group *)
}

let create ?(prefix = "transport") world =
  let t = { world; prefix; backends = []; unknown_gid = 0 } in
  World.add_metrics_exporter world (fun m ->
      T.Backend.export_metrics_sum ~prefix:t.prefix (List.rev t.backends) m;
      Horus_obs.Metrics.(
        set_counter (counter m (t.prefix ^ ".unknown_gid")) t.unknown_gid));
  t

let unknown_gid t = t.unknown_gid

(* Demux one decoded frame: a raw route or the owning endpoint from the
   group table. The payload is bytes [poff .. poff + plen) of [frame],
   which the link owns, so the stack's message adopts it. *)
let dispatch t mux ~src hdr frame poff plen =
  let gid = Addr.group_id hdr.T.Frame.h_group in
  match Hashtbl.find_opt mux.mx_raw gid with
  | Some handler -> handler ~src (Bytes.sub frame poff plen)
  | None -> (
    match Hashtbl.find_opt mux.mx_groups gid with
    | Some endpoint ->
      (* The frame's source is the only copy of the sender's address
         on the wire: COM takes P11 from it. *)
      let eid = Addr.endpoint_id hdr.T.Frame.h_src in
      let m = Msg.adopt frame ~off:poff ~len:plen in
      if not (Endpoint.deliver_routed endpoint ~gid ~src:eid m) then
        t.unknown_gid <- t.unknown_gid + 1
    | None -> t.unknown_gid <- t.unknown_gid + 1)

(* Shared rx for a socket: decode once, then demux on the frame gid.
   Trust the authenticated-by-CRC header's src over the socket
   address: the peer book names ranks, the kernel names ports. *)
let install_rx t mux =
  let stats = mux.mx_backend.T.Backend.stats in
  mux.mx_backend.T.Backend.set_rx (fun ~src frame ->
      match T.Frame.decode_view frame ~off:0 ~len:(Bytes.length frame) with
      | Ok (hdr, poff, plen) -> dispatch t mux ~src hdr frame poff plen
      | Error _ -> stats.T.Backend.bad_frame <- stats.T.Backend.bad_frame + 1)

let mux t ~backend ~peers =
  let m =
    { mx_backend = backend;
      mx_peers = peers;
      mx_groups = Hashtbl.create 8;
      mx_raw = Hashtbl.create 2 }
  in
  t.backends <- backend :: t.backends;
  install_rx t m;
  m

let route_raw m ~gid handler =
  if Hashtbl.mem m.mx_raw gid then
    invalid_arg "Transport_link.route_raw: gid already claimed";
  Hashtbl.replace m.mx_raw gid handler

(* The per-endpoint attachment over a shared socket. Group routes the
   endpoint registers are mirrored into the mux's group table; a crash
   withdraws them (the socket stays open — it carries other
   endpoints). *)
let attach_mux _t mux endpoint : Endpoint.attachment =
  let backend = mux.mx_backend in
  let stats = backend.T.Backend.stats in
  let bound = ref [] in
  Endpoint.set_route_hook endpoint (fun ~bind ~gid ->
      if bind then begin
        (match Hashtbl.find_opt mux.mx_groups gid with
         | Some other when other != endpoint ->
           invalid_arg
             (Printf.sprintf
                "Transport_link: group %d already has a member on this socket" gid)
         | _ -> ());
        Hashtbl.replace mux.mx_groups gid endpoint;
        bound := gid :: List.filter (fun g -> g <> gid) !bound
      end
      else begin
        (match Hashtbl.find_opt mux.mx_groups gid with
         | Some owner when owner == endpoint -> Hashtbl.remove mux.mx_groups gid
         | _ -> ());
        bound := List.filter (fun g -> g <> gid) !bound
      end);
  { Endpoint.a_xmit =
      (fun ~gid ~dsts m ->
         (* Backends treat sent bytes as immutable, so one frame, copied
            once out of the message's buffer, serves every
            destination. *)
         let buf, off, len = Msg.view m in
         let frame =
           T.Frame.encode_sub ~src:(Endpoint.addr endpoint) ~group:(Addr.group gid) buf ~off
             ~len
         in
         List.iter
           (fun dst ->
              match T.Peers.find mux.mx_peers ~rank:(Addr.endpoint_id dst) with
              | Some dest -> backend.T.Backend.send ~dest frame
              | None -> stats.T.Backend.dropped <- stats.T.Backend.dropped + 1)
           dsts);
    a_crash =
      (fun () ->
         List.iter
           (fun gid ->
              match Hashtbl.find_opt mux.mx_groups gid with
              | Some owner when owner == endpoint -> Hashtbl.remove mux.mx_groups gid
              | _ -> ())
           !bound;
         bound := []) }

(* A dedicated socket: a mux of its own carrying one endpoint, so the
   demux and the unknown-gid accounting are shared; the crash path
   closes the socket (nobody else is on it). *)
let attach t ~backend ~peers endpoint : Endpoint.attachment =
  { (attach_mux t (mux t ~backend ~peers) endpoint) with
    Endpoint.a_crash = (fun () -> backend.T.Backend.close ()) }

(* The deployment one-liners: an endpoint pinned at [rank], bound to
   [backend] (exclusively, or sharing a mux), addressing peers through
   the shared book. *)
let endpoint t ~backend ~peers ~rank ~spec =
  Endpoint.create ~addr:(Addr.endpoint rank)
    ~attach:(attach t ~backend ~peers) t.world ~spec

let mux_endpoint t m ~rank ~spec =
  Endpoint.create ~addr:(Addr.endpoint rank) ~attach:(attach_mux t m) t.world ~spec
