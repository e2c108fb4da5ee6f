(* HIER: the sub-group side of hierarchical composition.

   A flat MBRSHIP group is all-to-all and tops out at dozens of
   members; past that, the population is split into sub-groups of
   bounded size, and one representative per sub-group bridges into a
   parent group (LEGO composition: HIER:MBRSHIP:NAK:COM per sub-group,
   a plain MBRSHIP stack among the representatives).

   This layer runs above the membership layer of a sub-group and owns
   representative election: the representative is the sub-group
   coordinator (the oldest member — the same stable choice the
   membership layer already elects, so no extra agreement round is
   needed; every member deduces the representative from the view). On
   each view change it re-derives the representative and, when a
   [parent] group is named, announces/withdraws itself with the
   rendezvous service under the parent's address — how the bridging
   harness (and MERGE-style layers in the parent) locate the current
   representatives. Data and views pass through untouched: within its
   sub-group HIER is transparent, which is exactly its row in the
   property algebra (provides nothing, inherits everything).

   Params: [parent] — the parent group id (default -1: elect but do
   not advertise); [sub] — this sub-group's index, for diagnostics. *)

open Horus_msg
open Horus_hcpi

type state = {
  env : Layer.env;
  parent : int;
  sub : int;
  mutable view : View.t option;
  mutable rep : Addr.endpoint option;   (* current representative *)
  mutable announced : bool;             (* we hold a rendezvous entry *)
  mutable rep_changes : int;
  mutable rep_lost_at : float option;   (* flush began with the rep failed *)
  m_rep_changes : Horus_obs.Metrics.counter option;
  m_rebridge : Horus_obs.Metrics.histogram option;
}

let is_rep t =
  match t.rep with
  | Some r -> Addr.equal_endpoint r t.env.Layer.endpoint
  | None -> false

let parent_addr t = Addr.group t.parent

let withdraw t =
  if t.announced then begin
    t.announced <- false;
    t.env.Layer.rendezvous.Layer.withdraw (parent_addr t) t.env.Layer.endpoint
  end

let announce t =
  if (not t.announced) && t.parent >= 0 then begin
    t.announced <- true;
    t.env.Layer.rendezvous.Layer.announce (parent_addr t) t.env.Layer.endpoint
  end

let on_view t v =
  t.view <- Some v;
  let rep = View.coordinator v in
  let changed =
    match t.rep with Some r -> not (Addr.equal_endpoint r rep) | None -> true
  in
  if changed then begin
    (* Re-bridge latency: the clock started when a flush announced the
       representative among its failed endpoints; it stops at the view
       that installs the successor. *)
    (match t.rep_lost_at with
     | Some t0 ->
       Option.iter
         (fun h ->
            Horus_obs.Metrics.observe h
              (Horus_sim.Engine.now t.env.Layer.engine -. t0))
         t.m_rebridge
     | None -> ());
    t.rep <- Some rep;
    t.rep_changes <- t.rep_changes + 1;
    Option.iter Horus_obs.Metrics.incr t.m_rep_changes
  end;
  t.rep_lost_at <- None;
  if is_rep t then announce t else withdraw t

(* A flush names its failed endpoints before the successor view is
   agreed; if the current representative is among them, the sub-group
   is un-bridged from this instant until the next view installs a new
   coordinator. *)
let on_flush t failed =
  match t.rep with
  | Some r when List.exists (Addr.equal_endpoint r) failed ->
    if t.rep_lost_at = None then
      t.rep_lost_at <- Some (Horus_sim.Engine.now t.env.Layer.engine)
  | _ -> ()

let create params env =
  let t =
    { env;
      parent =
        (* In the parent group itself (representatives reuse their
           endpoint's spec) HIER must not announce into its own gid:
           demote to elect-only. *)
        (let p = Params.get_int params "parent" ~default:(-1) in
         if p = Addr.group_id env.Layer.group then -1 else p);
      sub = Params.get_int params "sub" ~default:0;
      view = None;
      rep = None;
      announced = false;
      rep_changes = 0;
      rep_lost_at = None;
      m_rep_changes =
        Option.map
          (fun m -> Horus_obs.Metrics.counter m "hier.rep_changes")
          env.Layer.metrics;
      m_rebridge =
        Option.map
          (fun m -> Horus_obs.Metrics.histogram m "hier.rebridge_time")
          env.Layer.metrics }
  in
  let handle_up (ev : Event.up) =
    (match ev with
     | Event.U_view v -> on_view t v
     | Event.U_flush failed -> on_flush t failed
     | Event.U_exit -> withdraw t
     | _ -> ());
    env.Layer.emit_up ev
  in
  { Layer.name = "HIER";
    handle_down = env.Layer.emit_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "sub=%d parent=%d rep=%s me=%b changes=%d" t.sub t.parent
             (match t.rep with
              | Some r -> string_of_int (Addr.endpoint_id r)
              | None -> "-")
             (is_rep t) t.rep_changes ]);
    inert = false;
    stop = (fun () -> withdraw t) }
