(* The directory client: request/reply with timeout and retry over a
   connectionless socket, plus the change-notification feed.

   The client is transport-shape-agnostic: it is constructed from an
   [xmit] thunk (raw frame bytes towards the server) and exposes its
   receive path as a function, so it runs equally over a dedicated
   socket (wire [rx_frame] into the backend's rx) or a shared
   Transport_link mux (register [rx] as the raw route for the
   directory gid). All timers ride the engine, so requests are
   deterministic under virtual time and real under a wall-clock
   driver.

   Failover: the client holds one xmit per directory replica, each
   with its own RTT estimator (the NAK layer's Rto machinery —
   srtt + 4*rttvar with capped exponential backoff, Karn-sampled).
   A request walks its current replica through the per-replica retry
   budget with backed-off resends, then fails over to the next
   replica; a [Not_primary] redirect from a backup advances
   immediately instead of burning the budget. The replica that last
   answered is sticky, so after one paid failover every subsequent
   request goes straight to the live primary. *)

module T = Horus_transport
module P = Dir_protocol
module Engine = Horus_sim.Engine
module Rto = Horus_layers.Nak.Rto

type replica = {
  r_xmit : Bytes.t -> unit;
  r_rto : Rto.t;
}

type pending = {
  p_frame : Bytes.t;
  mutable p_replica : int;   (* replica currently targeted *)
  mutable p_attempts : int;  (* sends towards the current replica *)
  mutable p_total : int;     (* sends across all replicas *)
  mutable p_sent_at : float; (* engine time of the last send *)
  mutable p_timer : Engine.handle option;
  p_k : (P.reply, string) result -> unit;
}

type stats = {
  mutable c_sent : int;
  mutable c_retries : int;
  mutable c_timeouts : int;
  mutable c_replies : int;
  mutable c_notifies : int;
  mutable c_failovers : int;  (* replica advances after an exhausted budget *)
  mutable c_redirects : int;  (* Not_primary redirects honoured *)
}

type t = {
  engine : Engine.t;
  eid : int;
  replicas : replica array;
  mutable current : int;      (* sticky: the replica that last answered *)
  pending : (int, pending) Hashtbl.t;
  mutable next_req : int;
  mutable on_notify :
    (group:int -> version:int -> rank:int -> addr:string option -> unit) list;
  stats : stats;
}

(* Seed of each replica's RTO estimator, seconds, and resends per
   replica before failing over. *)
let timeout = 0.25
let retries = 3

let create ?(eid = 0) ?(backups = []) ~engine xmit =
  let replica x =
    { r_xmit = x;
      r_rto = Rto.create ~init:timeout ~min_rto:(timeout /. 8.0)
          ~max_rto:(timeout *. 8.0) () }
  in
  { engine;
    eid;
    replicas = Array.of_list (List.map replica (xmit :: backups));
    current = 0;
    pending = Hashtbl.create 8;
    next_req = 1;
    on_notify = [];
    stats =
      { c_sent = 0; c_retries = 0; c_timeouts = 0; c_replies = 0; c_notifies = 0;
        c_failovers = 0; c_redirects = 0 } }

let replicas t = Array.length t.replicas

let on_notify t f = t.on_notify <- t.on_notify @ [ f ]

let frame_of t ~req_id req =
  T.Frame.encode
    ~src:(Horus_msg.Addr.endpoint t.eid)
    ~group:(Horus_msg.Addr.group P.gid)
    (P.encode_request ~req_id req)

(* The whole-request send budget: a full per-replica retry budget
   against every replica once around the ring. *)
let budget t = (retries + 1) * Array.length t.replicas

let advance p n = p.p_replica <- (p.p_replica + 1) mod n; p.p_attempts <- 0

let fail t req_id p =
  Hashtbl.remove t.pending req_id;
  t.stats.c_timeouts <- t.stats.c_timeouts + 1;
  p.p_k (Error "directory request timed out")

let rec fire t req_id p =
  let r = t.replicas.(p.p_replica) in
  p.p_attempts <- p.p_attempts + 1;
  p.p_total <- p.p_total + 1;
  t.stats.c_sent <- t.stats.c_sent + 1;
  if p.p_total > 1 then t.stats.c_retries <- t.stats.c_retries + 1;
  p.p_sent_at <- Engine.now t.engine;
  r.r_xmit p.p_frame;
  (* Resend pacing is this replica's estimated RTO, doubled per local
     attempt — an unreachable replica is abandoned after
     [retries + 1] backed-off sends, not hammered on a fixed clock. *)
  let delay = Rto.backoff r.r_rto ~attempt:(p.p_attempts - 1) in
  p.p_timer <-
    Some
      (Engine.schedule t.engine ~delay (fun () ->
           if Hashtbl.mem t.pending req_id then
             if p.p_total >= budget t then fail t req_id p
             else begin
               if p.p_attempts > retries then begin
                 t.stats.c_failovers <- t.stats.c_failovers + 1;
                 advance p (Array.length t.replicas)
               end;
               fire t req_id p
             end))

let request t req k =
  let req_id = t.next_req in
  t.next_req <- t.next_req + 1;
  let p =
    { p_frame = frame_of t ~req_id req;
      p_replica = t.current;
      p_attempts = 0;
      p_total = 0;
      p_sent_at = 0.0;
      p_timer = None;
      p_k = k }
  in
  Hashtbl.replace t.pending req_id p;
  fire t req_id p

let rx t ~src:_ payload =
  match P.decode_reply payload with
  | Error _ -> ()
  | Ok (req_id, reply) -> (
    match reply with
    | P.Notify { group; version; rank; addr } ->
      t.stats.c_notifies <- t.stats.c_notifies + 1;
      List.iter (fun f -> f ~group ~version ~rank ~addr) t.on_notify
    | _ -> (
      match Hashtbl.find_opt t.pending req_id with
      | None -> ()  (* late duplicate of an answered request *)
      | Some p -> (
        match reply with
        | P.Error { code = P.Not_primary; _ } when Array.length t.replicas > 1 ->
          (* A backup redirect: hop to the next replica right away
             instead of waiting out the resend timer. *)
          t.stats.c_redirects <- t.stats.c_redirects + 1;
          (match p.p_timer with Some h -> Engine.cancel h | None -> ());
          p.p_timer <- None;
          if p.p_total >= budget t then fail t req_id p
          else begin
            advance p (Array.length t.replicas);
            fire t req_id p
          end
        | _ ->
          Hashtbl.remove t.pending req_id;
          (match p.p_timer with Some h -> Engine.cancel h | None -> ());
          t.stats.c_replies <- t.stats.c_replies + 1;
          (* Karn's rule: only a first-attempt exchange is an
             unambiguous RTT sample for the answering replica. *)
          if p.p_attempts = 1 then
            Rto.observe t.replicas.(p.p_replica).r_rto
              (Engine.now t.engine -. p.p_sent_at);
          t.current <- p.p_replica;
          p.p_k (Ok reply))))

let rx_frame t ~src frame =
  match T.Frame.decode frame with
  | Error _ -> ()
  | Ok (hdr, payload) ->
    if Horus_msg.Addr.group_id hdr.T.Frame.h_group = P.gid then rx t ~src payload

let stats t = t.stats

let err_of = function
  | P.Error { code; detail } ->
    Printf.sprintf "%s (%s)" (P.error_code_to_string code) detail
  | r -> Format.asprintf "unexpected directory reply: %a" P.pp_reply r

(* Typed wrappers: each maps the expected reply variant, turning a
   service-side Error frame into a clean [Error] result — no caller
   ever learns about an unknown rank via a timeout. *)

let register t ~group ~rank ~addr ~lease k =
  request t (P.Register { group; rank; addr; lease }) (function
      | Error e -> k (Error e)
      | Ok (P.Registered { version; expires; _ }) -> k (Ok (version, expires))
      | Ok r -> k (Error (err_of r)))

let renew t ~group ~rank ~lease k =
  request t (P.Renew { group; rank; lease }) (function
      | Error e -> k (Error e)
      | Ok (P.Registered { expires; _ }) -> k (Ok expires)
      | Ok r -> k (Error (err_of r)))

let unregister t ~group ~rank k =
  request t (P.Unregister { group; rank }) (function
      | Error e -> k (Error e)
      | Ok P.Done -> k (Ok ())
      | Ok r -> k (Error (err_of r)))

let lookup t ~group ~rank k =
  request t (P.Lookup { group; rank }) (function
      | Error e -> k (Error e)
      | Ok (P.Found { addr; _ }) -> k (Ok addr)
      | Ok r -> k (Error (err_of r)))

let list_group t ~group k =
  request t (P.List_group group) (function
      | Error e -> k (Error e)
      | Ok (P.Entries { version; entries; _ }) -> k (Ok (version, entries))
      | Ok r -> k (Error (err_of r)))

let subscribe t ~group k =
  request t (P.Subscribe group) (function
      | Error e -> k (Error e)
      | Ok (P.Subscribed { version; _ }) -> k (Ok version)
      | Ok r -> k (Error (err_of r)))

let unsubscribe t ~group k =
  request t (P.Unsubscribe group) (function
      | Error e -> k (Error e)
      | Ok P.Done -> k (Ok ())
      | Ok r -> k (Error (err_of r)))

(* Keep a binding alive: register now, renew at half-lease cadence,
   unregister on release. Renewal failures re-register from scratch
   (the lease may have lapsed across a partition or a failover).
   [abandon] stops the cadence WITHOUT unregistering — the ungraceful
   path: a crashed member's binding must lapse by lease expiry, never
   by a polite goodbye it did not live to send. *)

type renewal = {
  rn_t : t;
  rn_group : int;
  rn_rank : int;
  mutable rn_stopped : bool;
  mutable rn_timer : Engine.handle option;
}

let keepalive t ~group ~rank ~addr ~lease =
  let rn = { rn_t = t; rn_group = group; rn_rank = rank; rn_stopped = false;
             rn_timer = None } in
  let rec arm () =
    if not rn.rn_stopped then
      rn.rn_timer <-
        Some
          (Engine.schedule t.engine ~delay:(lease /. 2.0) (fun () ->
               if not rn.rn_stopped then
                 renew t ~group ~rank ~lease (function
                     | Ok _ -> arm ()
                     | Error _ ->
                       register t ~group ~rank ~addr ~lease (fun _ -> arm ()))))
  in
  register t ~group ~rank ~addr ~lease (fun _ -> arm ());
  rn

let abandon rn =
  if not rn.rn_stopped then begin
    rn.rn_stopped <- true;
    (match rn.rn_timer with Some h -> Engine.cancel h | None -> ());
    rn.rn_timer <- None
  end

let release rn =
  if not rn.rn_stopped then begin
    abandon rn;
    unregister rn.rn_t ~group:rn.rn_group ~rank:rn.rn_rank (fun _ -> ())
  end

let peers_of entries =
  let p = T.Peers.create () in
  List.iter (fun (rank, addr) -> T.Peers.add p ~rank ~addr) entries;
  p

(* Mirror client-side request-path counters into the obs registry, so
   failover cost shows up in metrics snapshots and soak fingerprints.
   The summed form serves harnesses with one client per socket: the
   section reads as one logical client. *)
let export_metrics_sum ?(prefix = "dir.client") ts m =
  let c name f =
    Horus_obs.Metrics.(
      set_counter
        (counter m (prefix ^ "." ^ name))
        (List.fold_left (fun acc t -> acc + f t.stats) 0 ts))
  in
  c "sent" (fun s -> s.c_sent);
  c "retries" (fun s -> s.c_retries);
  c "timeouts" (fun s -> s.c_timeouts);
  c "replies" (fun s -> s.c_replies);
  c "notifies" (fun s -> s.c_notifies);
  c "failovers" (fun s -> s.c_failovers);
  c "redirects" (fun s -> s.c_redirects)

let export_metrics ?prefix t m = export_metrics_sum ?prefix [ t ] m
