(* Simulated best-effort datagram network (the "ATM / Internet" of the
   paper, providing only property P1).

   Nodes are integer ids. The network can delay, drop, duplicate,
   garble and reorder packets, partition the node set, and crash
   nodes — each knob independently controllable so tests can exercise
   exactly one failure mode at a time. *)

type config = {
  latency : float;        (* base one-way latency in seconds *)
  jitter : float;         (* uniform extra latency in [0, jitter) — causes reordering *)
  drop_prob : float;
  duplicate_prob : float;
  garble_prob : float;    (* flip one random byte of the payload *)
  mtu : int;              (* packets larger than this are dropped (and counted) *)
}

let default_config =
  { latency = 0.0005; jitter = 0.0; drop_prob = 0.0; duplicate_prob = 0.0;
    garble_prob = 0.0; mtu = max_int }

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable garbled : int;
  mutable duplicated : int;
  mutable oversize : int;
  mutable bytes_sent : int;
}

type t = {
  engine : Engine.t;
  prng : Horus_util.Prng.t;
  config : config;
  handlers : (int, src:int -> Bytes.t -> unit) Hashtbl.t;
  crashed : (int, unit) Hashtbl.t;
  (* partition id per node; nodes communicate iff their ids are equal.
     Absent means the default partition 0. *)
  partition_of : (int, int) Hashtbl.t;
  stats : stats;
  (* promiscuous wiretap: sees every packet put on the wire (before
     loss or garbling) — for eavesdropping demos and debugging *)
  mutable tap : (src:int -> dst:int -> Bytes.t -> unit) option;
  (* per-link latency overrides, for targeted race scenarios *)
  link_latency : (int * int, float) Hashtbl.t;
}

let create ?(config = default_config) ?(seed = 1) engine =
  { engine; prng = Horus_util.Prng.create seed; config;
    handlers = Hashtbl.create 64; crashed = Hashtbl.create 8;
    partition_of = Hashtbl.create 8;
    stats = { sent = 0; delivered = 0; dropped = 0; garbled = 0;
              duplicated = 0; oversize = 0; bytes_sent = 0 };
    tap = None;
    link_latency = Hashtbl.create 4 }

let set_tap t f = t.tap <- f

let set_link_latency t ~src ~dst latency =
  match latency with
  | Some l -> Hashtbl.replace t.link_latency (src, dst) l
  | None -> Hashtbl.remove t.link_latency (src, dst)

let engine t = t.engine

let config t = t.config

let stats t = t.stats

(* Export the wire stats into a metrics registry, as monotone [net.*]
   counters mirroring the [stats] record. Called at snapshot time
   (e.g. by [World.metrics_json]) so the registry needs no hook in the
   packet hot path. *)
let export_metrics t m =
  let c name v = Horus_obs.Metrics.(set_counter (counter m name) v) in
  c "net.sent" t.stats.sent;
  c "net.delivered" t.stats.delivered;
  c "net.dropped" t.stats.dropped;
  c "net.garbled" t.stats.garbled;
  c "net.duplicated" t.stats.duplicated;
  c "net.oversize" t.stats.oversize;
  c "net.bytes_sent" t.stats.bytes_sent

let attach t ~node handler =
  if Hashtbl.mem t.handlers node then invalid_arg "Net.attach: node already attached";
  Hashtbl.replace t.handlers node handler

let detach t ~node = Hashtbl.remove t.handlers node

let crash t ~node = Hashtbl.replace t.crashed node ()

let recover t ~node = Hashtbl.remove t.crashed node

let is_crashed t ~node = Hashtbl.mem t.crashed node

let partition_id t node =
  match Hashtbl.find_opt t.partition_of node with
  | Some p -> p
  | None -> 0

(* [partition t groups] places each listed node in the partition of its
   group; unlisted nodes stay in partition 0. *)
let partition t groups =
  Hashtbl.reset t.partition_of;
  List.iteri
    (fun i group -> List.iter (fun node -> Hashtbl.replace t.partition_of node (i + 1)) group)
    groups

let heal t = Hashtbl.reset t.partition_of

let connected t a b = partition_id t a = partition_id t b

let garble_payload t payload =
  let n = Bytes.length payload in
  if n = 0 then payload
  else begin
    let copy = Bytes.copy payload in
    let i = Horus_util.Prng.int t.prng n in
    Bytes.set copy i (Char.chr (Char.code (Bytes.get copy i) lxor (1 + Horus_util.Prng.int t.prng 255)));
    copy
  end

let deliver t ~src ~dst payload =
  (* Re-check at delivery time: the destination may have crashed or been
     partitioned away while the packet was in flight. *)
  if (not (is_crashed t ~node:dst)) && connected t src dst then
    match Hashtbl.find_opt t.handlers dst with
    | Some handler ->
      t.stats.delivered <- t.stats.delivered + 1;
      handler ~src payload
    | None -> t.stats.dropped <- t.stats.dropped + 1
  else t.stats.dropped <- t.stats.dropped + 1

let send t ~src ~dst payload =
  t.stats.sent <- t.stats.sent + 1;
  t.stats.bytes_sent <- t.stats.bytes_sent + Bytes.length payload;
  (match t.tap with Some f -> f ~src ~dst payload | None -> ());
  let c = t.config in
  if Bytes.length payload > c.mtu then begin
    t.stats.oversize <- t.stats.oversize + 1;
    t.stats.dropped <- t.stats.dropped + 1
  end
  else if is_crashed t ~node:src || not (connected t src dst) then
    t.stats.dropped <- t.stats.dropped + 1
  else if Horus_util.Prng.chance t.prng c.drop_prob then
    t.stats.dropped <- t.stats.dropped + 1
  else begin
    let payload =
      if Horus_util.Prng.chance t.prng c.garble_prob then begin
        t.stats.garbled <- t.stats.garbled + 1;
        garble_payload t payload
      end
      else payload
    in
    let once () =
      let base =
        match Hashtbl.find_opt t.link_latency (src, dst) with
        | Some l -> l
        | None -> c.latency
      in
      let delay =
        if c.jitter > 0.0 then base +. Horus_util.Prng.float t.prng c.jitter else base
      in
      ignore (Engine.schedule t.engine ~delay (fun () -> deliver t ~src ~dst payload))
    in
    once ();
    if Horus_util.Prng.chance t.prng c.duplicate_prob then begin
      t.stats.duplicated <- t.stats.duplicated + 1;
      once ()
    end
  end
