(* A communication endpoint (Section 3).

   An endpoint owns a network attachment and a protocol stack spec;
   joining a group instantiates a fresh stack over the endpoint (the
   per-group layer state of the paper's group objects). Packets carry a
   group-id frame so one endpoint can serve many groups — the "base
   endpoint" on which multiple stacks stand.

   The attachment is pluggable: by default the endpoint attaches to the
   world's simulated network, but a deployment hands in an [attach]
   function (see Transport_link) that binds the same stacks to a real
   transport backend instead. The stacks cannot tell the difference —
   both roads end at the same xmit/deliver pair. *)

open Horus_msg

type attachment = {
  a_kind : string;  (* "sim", "udp", "loopback" — for diagnostics *)
  a_mtu : int;
  a_xmit : gid:int -> dsts:Addr.endpoint list -> Msg.t -> unit;
      (* one datagram to each of [dsts], framed once from the message's
         live bytes before returning *)
  a_crash : unit -> unit;
}

type t = {
  world : World.t;
  addr : Addr.endpoint;
  spec : Horus_hcpi.Spec.t;
  routes : (int, src:int -> Msg.t -> unit) Hashtbl.t;  (* gid -> stack ingress *)
  mutable attachment : attachment;
  mutable crashed : bool;
  mutable on_crash : (unit -> unit) list;  (* group handles register cleanup *)
  mutable on_route : (bind:bool -> gid:int -> unit) option;
      (* attachment hook: told whenever a group route (un)registers, so
         a shared-socket link can maintain its gid demux table *)
}

(* The simulated net's frame: the group id, then the message's live
   bytes, copied once out of its buffer. *)
let frame_gid gid m =
  let buf, off, n = Msg.view m in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int gid);
  Bytes.blit buf off b 4 n;
  b

(* Incoming packets from whatever attachment — route on group id.
   Returns false only when the endpoint is alive but has no stack
   joined to [gid]: the caller (a shared-socket link) counts those as
   unknown-gid drops. Crashed endpoints swallow frames silently — a
   dead process is not a routing error. *)
let deliver_routed t ~gid ~src m =
  if t.crashed then true
  else
    match Hashtbl.find_opt t.routes gid with
    | Some route ->
      route ~src m;
      true
    | None -> false

let deliver t ~gid ~src m = ignore (deliver_routed t ~gid ~src m)

let sim_attachment t =
  let net = World.net t.world in
  let node = Addr.endpoint_id t.addr in
  Horus_sim.Net.attach net ~node (fun ~src payload ->
      if Bytes.length payload >= 4 then begin
        let gid = Int32.to_int (Bytes.get_int32_be payload 0) in
        (* A copy, not [Msg.adopt]: every destination shares the one
           frame [a_xmit] sent. *)
        deliver t ~gid ~src (Msg.of_sub payload ~off:4 ~len:(Bytes.length payload - 4))
      end);
  { a_kind = "sim";
    a_mtu = (Horus_sim.Net.config net).Horus_sim.Net.mtu;
    a_xmit =
      (fun ~gid ~dsts m ->
         (* The net never mutates a datagram (garbling works on a
            copy), so every destination shares one framed buffer. *)
         let frame = frame_gid gid m in
         List.iter
           (fun dst -> Horus_sim.Net.send net ~src:node ~dst:(Addr.endpoint_id dst) frame)
           dsts);
    a_crash = (fun () -> Horus_sim.Net.crash net ~node) }

let create ?addr ?attach world ~spec =
  let addr =
    match addr with
    | Some a -> World.claim_endpoint_addr world a
    | None -> World.fresh_endpoint_addr world
  in
  let t =
    { world;
      addr;
      spec = Horus_hcpi.Spec.parse spec;
      routes = Hashtbl.create 4;
      attachment =
        (* placeholder until the real attachment is built below; never
           observable because [create] replaces it before returning *)
        { a_kind = "none";
          a_mtu = 0;
          a_xmit = (fun ~gid:_ ~dsts:_ _ -> ());
          a_crash = (fun () -> ()) };
      crashed = false;
      on_crash = [];
      on_route = None }
  in
  t.attachment <- (match attach with None -> sim_attachment t | Some f -> f t);
  t

let world t = t.world

let addr t = t.addr

let node t = Addr.endpoint_id t.addr

let spec t = t.spec

let kind t = t.attachment.a_kind

let is_crashed t = t.crashed

(* Installed by shared-socket attachments (Transport_link.attach_mux)
   before any group joins, so every subsequent route registration is
   mirrored into the link's gid demux table. *)
let set_route_hook t f = t.on_route <- Some f

(* Used by Group.join. *)
let register_route t ~gid route =
  if Hashtbl.mem t.routes gid then invalid_arg "Endpoint: group already joined";
  Hashtbl.replace t.routes gid route;
  match t.on_route with Some f -> f ~bind:true ~gid | None -> ()

let unregister_route t ~gid =
  Hashtbl.remove t.routes gid;
  match t.on_route with Some f -> f ~bind:false ~gid | None -> ()

let add_crash_hook t f = t.on_crash <- f :: t.on_crash

(* The per-group transport handed to the stack's bottom layer: frames
   outgoing packets with the group id. *)
let transport t ~gid : Horus_hcpi.Layer.transport =
  { Horus_hcpi.Layer.xmit = (fun ~dsts m -> t.attachment.a_xmit ~gid ~dsts m);
    local_node = node t;
    mtu = t.attachment.a_mtu }

(* Crash the endpoint: the attachment stops carrying its traffic and all
   its stacks halt silently (a crashed process does not observe its own
   crash). *)
let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    t.attachment.a_crash ();
    List.iter (fun f -> f ()) t.on_crash;
    t.on_crash <- []
  end
