(* A simulated Horus world: the event engine, the network, the metrics
   registry, address allocation, and the rendezvous (resource location)
   service that membership and merge layers use to find partitions of a
   group.

   Everything an application or test does happens inside one world, and
   every run of a world is deterministic in its seed. *)

open Horus_msg
open Horus_hcpi

type t = {
  engine : Horus_sim.Engine.t;
  net : Horus_sim.Net.t;
  metrics : Horus_obs.Metrics.t;
  prng : Horus_util.Prng.t;
  mutable next_eid : int;
  mutable next_gid : int;
  coordinators : (int, Addr.endpoint list ref) Hashtbl.t;  (* gid -> announced *)
  disk : (string, string list ref) Hashtbl.t;  (* stable storage, survives crashes *)
  mutable exporters : (Horus_obs.Metrics.t -> unit) list;  (* run at snapshot time *)
}

let create ?(config = Horus_sim.Net.default_config) ?(seed = 1) () =
  Horus_layers.Init.register_all ();
  let metrics = Horus_obs.Metrics.create () in
  let engine = Horus_sim.Engine.create ~metrics () in
  { engine;
    net = Horus_sim.Net.create ~config ~seed engine;
    metrics;
    prng = Horus_util.Prng.create (seed + 0x5eed);
    next_eid = 0;
    next_gid = 0;
    coordinators = Hashtbl.create 8;
    disk = Hashtbl.create 8;
    exporters = [] }

let engine t = t.engine

let net t = t.net

let metrics t = t.metrics

(* Subsystems that keep stats outside the registry (the net, transport
   backends) register an exporter; each snapshot mirrors them in. *)
let add_metrics_exporter t f = t.exporters <- f :: t.exporters

(* One deterministic snapshot of everything the world measures: the
   engine's dispatch histogram, every stack's per-layer crossing
   counters, the network's wire stats, and any registered exporters
   (all mirrored in here, at snapshot time). *)
let metrics_json t =
  Horus_sim.Net.export_metrics t.net t.metrics;
  List.iter (fun f -> f t.metrics) (List.rev t.exporters);
  Horus_obs.Metrics.to_json t.metrics

(* The world's own deterministic generator, for workload generators
   that want randomness tied to the world seed. *)
let prng t = t.prng

let now t = Horus_sim.Engine.now t.engine

let fresh_endpoint_addr t =
  let eid = t.next_eid in
  t.next_eid <- t.next_eid + 1;
  Addr.endpoint eid

(* Deployments pin endpoint addresses (every process must agree on
   ranks); keep the fresh allocator clear of anything pinned. *)
let claim_endpoint_addr t a =
  let eid = Addr.endpoint_id a in
  if eid >= t.next_eid then t.next_eid <- eid + 1;
  a

let fresh_group_addr t =
  let gid = t.next_gid in
  t.next_gid <- t.next_gid + 1;
  Addr.group gid

(* --- rendezvous service --- *)

let slot t g =
  let gid = Addr.group_id g in
  match Hashtbl.find_opt t.coordinators gid with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace t.coordinators gid r;
    r

let rendezvous t : Layer.rendezvous =
  { announce =
      (fun g e ->
         let r = slot t g in
         if not (List.exists (Addr.equal_endpoint e) !r) then r := e :: !r);
    withdraw =
      (fun g e ->
         let r = slot t g in
         r := List.filter (fun x -> not (Addr.equal_endpoint x e)) !r);
    lookup =
      (fun g ->
         (* Crashed coordinators are invisible: a real resource-location
            service would time their registrations out. *)
         List.filter
           (fun e -> not (Horus_sim.Net.is_crashed t.net ~node:(Addr.endpoint_id e)))
           !(slot t g)
         |> List.sort Addr.compare_endpoint) }

(* --- stable storage (a simulated disk shared by all processes,
   addressed by key; survives crashes by construction) --- *)

let storage t : Layer.storage =
  let slot key =
    match Hashtbl.find_opt t.disk key with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace t.disk key r;
      r
  in
  { Layer.append = (fun ~key record -> let r = slot key in r := record :: !r);
    read = (fun ~key -> List.rev !(slot key));
    truncate = (fun ~key -> Hashtbl.remove t.disk key) }

(* --- running --- *)

let run ?max_events t = Horus_sim.Engine.run ?max_events t.engine

let run_until ?max_events t ~time = Horus_sim.Engine.run_until ?max_events t.engine ~time

let run_for ?max_events t ~duration =
  run_until ?max_events t ~time:(now t +. duration)

let at t ~time f = ignore (Horus_sim.Engine.schedule_at t.engine ~time f)

let after t ~delay f = ignore (Horus_sim.Engine.schedule t.engine ~delay f)
