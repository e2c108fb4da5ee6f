(* Execute a Scenario against the production stack in a fresh world.

   One scenario, one world: staggered joins, a settle period, then the
   traffic and fault schedules relative to a common origin t0, with
   the Engine chooser installed when the scenario carries a dispatch
   schedule. The run is a pure function of the scenario, so the
   explorer, the shrinker, the replayer and the test suite all go
   through here. *)

open Horus

let tag = 'o'

type result = {
  r_scenario : Scenario.t;
  r_obs : Invariant.obs list;
  r_violations : Invariant.violation list;
  r_choice_points : int;   (* choice points hit (>= 2 candidates) *)
  r_arities : int list;    (* arity of each choice point, oldest first *)
  r_taken : int list;      (* decision made at each choice point *)
}

let sent_of scenario member =
  List.length (List.filter (fun o -> o.Scenario.op_member = member) scenario.Scenario.ops)

(* Per-member recorder. The runner attaches it after settle (so
   recorded views are the ones traffic runs in); a live node attaches
   it at join. *)
type recorder = {
  mutable rec_casts : (string * int) list;          (* newest first *)
  mutable rec_views : ((int * int) * int list) list; (* newest first *)
  mutable rec_delivered : int;
}

let empty () = { rec_casts = []; rec_views = []; rec_delivered = 0 }

let delivered r = r.rec_delivered

let attach gr =
  let r = empty () in
  Group.set_on_up gr (fun ev ->
      match ev with
      | Event.U_cast (_, m, _) ->
        let epoch = match Group.view gr with Some v -> View.ltime v | None -> -1 in
        r.rec_casts <- (Msg.to_string m, epoch) :: r.rec_casts;
        r.rec_delivered <- r.rec_delivered + 1
      | Event.U_view v ->
        r.rec_views <-
          ( (View.ltime v, Addr.endpoint_id (View.coordinator v)),
            List.map Addr.endpoint_id (View.members v) )
          :: r.rec_views
      | _ -> ());
  r

(* A joined member's observations as of now. *)
let observation ~member ?(crashed = false) ?(left = false) r gr =
  { Invariant.o_member = member;
    o_eid = Addr.endpoint_id (Group.addr gr);
    o_crashed = crashed;
    o_left = left;
    o_exited = Group.exited gr;
    o_casts = List.rev r.rec_casts;
    o_views = List.rev r.rec_views;
    o_final =
      (match Group.view gr with
       | Some v -> Some (View.ltime v, List.map Addr.endpoint_id (View.members v))
       | None -> None) }

let spec_is_total spec =
  List.exists (fun l -> l.Horus_hcpi.Spec.name = "TOTAL") (Horus_hcpi.Spec.parse spec)

let spec_has_membership spec =
  List.exists
    (fun l -> l.Horus_hcpi.Spec.name = "MBRSHIP" || l.Horus_hcpi.Spec.name = "BMS")
    (Horus_hcpi.Spec.parse spec)

(* With a chaos section, the run goes over the real-transport waist
   instead of the simulator net: every member gets a loopback backend
   (latency from the scenario's net section) wrapped by one shared
   Chaos controller seeded from the scenario seed — the same frames,
   codec and fault decisions a deployment would see, still in virtual
   time. Partition/Heal faults turn into chaos-level one-way blocks;
   link-latency overrides and Net schedule choosers do not apply. *)
type fabric = {
  fb_endpoint : int -> Endpoint.t;          (* member index -> endpoint *)
  fb_partition : int list list -> unit;
  fb_heal : unit -> unit;
  fb_crash : int -> unit;                   (* crash aftermath at the waist *)
}

let sim_fabric world spec =
  { fb_endpoint = (fun _ -> Endpoint.create world ~spec);
    fb_partition =
      (fun nodes ->
         (* member indices are resolved to node ids by the caller *)
         Horus_sim.Net.partition (World.net world) nodes);
    fb_heal = (fun () -> Horus_sim.Net.heal (World.net world));
    fb_crash = (fun _ -> ()) }

let chaos_fabric world spec n seed (profile : Horus_transport.Chaos.profile) latency =
  let module T = Horus_transport in
  let hub = T.Loopback.hub ~latency (World.engine world) in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let backends =
    Array.init n (fun r ->
        let b = T.Loopback.create ~addr:(Printf.sprintf "mem:%d" r) hub in
        T.Peers.add peers ~rank:r ~addr:b.T.Backend.local_addr;
        b)
  in
  let chaos = T.Chaos.create ~engine:(World.engine world) ~peers ~seed profile in
  World.add_metrics_exporter world (fun m -> T.Chaos.export_metrics chaos m);
  let endpoints =
    Array.mapi
      (fun r backend ->
         Transport_link.endpoint link ~backend:(T.Chaos.wrap ~rank:r chaos backend)
           ~peers ~rank:r ~spec)
      backends
  in
  let block_groups groups =
    (* Same semantics as Net.partition: listed groups are isolated
       from each other and from the unlisted rest, both directions. *)
    let grp = Array.make n (-1) in
    List.iteri (fun gi ms -> List.iter (fun m -> grp.(m) <- gi) ms) groups;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && grp.(i) <> grp.(j) then
          T.Chaos.block chaos ~from_rank:i ~to_rank:j
      done
    done
  in
  { fb_endpoint = (fun r -> endpoints.(r));
    fb_partition =
      (fun groups ->
         T.Chaos.heal chaos;
         block_groups groups);
    fb_heal = (fun () -> T.Chaos.heal chaos);
    fb_crash =
      (* A crashed rank is blocked at the waist permanently: senders
         drop its frames on the spot instead of delivering them to a
         socket that no longer hosts it. *)
      (fun r -> T.Peers.block peers ~rank:r) }

let run ?(fastpath = false) ?observe (sc : Scenario.t) =
  let world =
    World.create ~config:(Scenario.net_config sc.Scenario.net) ~seed:sc.Scenario.seed ()
  in
  let fabric =
    match sc.Scenario.chaos with
    | None -> sim_fabric world sc.Scenario.spec
    | Some p ->
      chaos_fabric world sc.Scenario.spec sc.Scenario.n sc.Scenario.seed p
        sc.Scenario.net.Scenario.latency
  in
  let n = sc.Scenario.n in
  (* Members with a Join fault sit out the initial wave and join at
     their fault time — the churn ingredient. Endpoints are cached per
     member so fault handlers can name a member's address before (or
     without) its join; for scenarios without Join faults the creation
     points are exactly the historical ones, keeping old fingerprints
     stable. *)
  let late = Scenario.late_members sc in
  let ep_cache : Endpoint.t option array = Array.make n None in
  let endpoint_of i =
    match ep_cache.(i) with
    | Some e -> e
    | None ->
      let e = fabric.fb_endpoint i in
      ep_cache.(i) <- Some e;
      e
  in
  let g = World.fresh_group_addr world in
  let members : Group.t option array = Array.make n None in
  let recorders : recorder option array = Array.make n None in
  let founder = Group.join ~fastpath (endpoint_of 0) g in
  members.(0) <- Some founder;
  World.run_for world ~duration:sc.Scenario.join_spacing;
  for i = 1 to n - 1 do
    if not (List.mem i late) then begin
      members.(i) <-
        Some (Group.join ~fastpath ~contact:(Group.addr founder) (endpoint_of i) g);
      World.run_for world ~duration:sc.Scenario.join_spacing
    end
  done;
  let joined () =
    List.filter_map (fun m -> m) (Array.to_list members)
  in
  (* Stacks without a membership layer never install destination
     views, so casts would have nowhere to go: give every member the
     full group as a hand-installed ltime-0 view, the same way an
     application embedding a bare reliable stack would. Installed
     before the recorders attach, so o_views stays a record of
     protocol-installed views only. *)
  if not (spec_has_membership sc.Scenario.spec) then begin
    let v =
      View.create ~group:g ~ltime:0
        ~members:(List.sort Addr.compare_endpoint (List.map Group.addr (joined ())))
    in
    List.iter (fun m -> Group.install_view m v) (joined ())
  end;
  World.run_for world ~duration:sc.Scenario.settle;
  Array.iteri
    (fun i gr -> match gr with Some gr -> recorders.(i) <- Some (attach gr) | None -> ())
    members;
  (* Everything below is relative to t0, the traffic origin. *)
  let t0 = World.now world in
  (* Per-link latency overrides (the Figure 2 ingredient: a crashed
     member's copies slowed towards some members, not others). *)
  let node m = Addr.endpoint_id (Endpoint.addr (endpoint_of m)) in
  List.iter
    (fun (s, d, lat) ->
       Horus_sim.Net.set_link_latency (World.net world) ~src:(node s) ~dst:(node d)
         (Some lat))
    sc.Scenario.links;
  (* Traffic: member i's k-th op (by time, ties by list order) casts
     the canonical payload, so shrinking ops never forges gaps. *)
  let per_member = Array.make sc.Scenario.n [] in
  List.iter
    (fun o ->
       per_member.(o.Scenario.op_member) <-
         (o.Scenario.op_at, o.Scenario.op_pad) :: per_member.(o.Scenario.op_member))
    sc.Scenario.ops;
  Array.iteri
    (fun i ats ->
       List.iteri
         (fun k (at, pad) ->
            World.at world ~time:(t0 +. at) (fun () ->
                match members.(i) with
                | Some gr -> Group.cast gr (Invariant.payload ~pad ~tag ~origin:i ~k ())
                | None -> ()  (* not (yet) joined: the op is a no-op *)))
         (List.sort (fun (a, _) (b, _) -> Float.compare a b) (List.rev ats)))
    per_member;
  (* Faults. *)
  List.iter
    (fun f ->
       World.at world ~time:(t0 +. f.Scenario.f_at) (fun () ->
           match f.Scenario.f_fault with
           | Scenario.Crash m ->
             Endpoint.crash (endpoint_of m);
             fabric.fb_crash m
           | Scenario.Leave m ->
             (match members.(m) with Some gr -> Group.leave gr | None -> ())
           | Scenario.Join m ->
             (* Late (or re-) join: only when the member holds no live
                group handle — an un-exited handle still owns the gid
                route, so the fault is a deterministic no-op then. *)
             let joinable =
               match members.(m) with
               | None -> true
               | Some gr -> Group.exited gr
             in
             if joinable && not (Endpoint.is_crashed (endpoint_of m)) then begin
               let gr =
                 Group.join ~fastpath ~contact:(Group.addr founder) (endpoint_of m) g
               in
               members.(m) <- Some gr;
               recorders.(m) <- Some (attach gr)
             end
           | Scenario.Suspect (a, b) ->
             (match members.(a) with
              | Some gr -> Group.suspect gr [ Endpoint.addr (endpoint_of b) ]
              | None -> ())
           | Scenario.Partition groups ->
             (* Node ids: the simulator net keys on them; under chaos
                the endpoints are pinned at their ranks, so the two
                coincide with member indices there. *)
             fabric.fb_partition
               (List.map (List.map (fun m -> node m)) groups)
           | Scenario.Heal -> fabric.fb_heal ()))
    sc.Scenario.faults;
  (* Dispatch schedule: replay the choice prefix, then default-0.
     Record every choice point's arity and decision so explorer runs
     convert into concrete, replayable prefixes. *)
  let arities = ref [] and taken = ref [] and remaining = ref [] in
  (match sc.Scenario.sched with
   | None -> ()
   | Some s ->
     remaining := s.Scenario.s_choices;
     Horus_sim.Engine.set_chooser ~horizon:s.Scenario.s_horizon ~width:s.Scenario.s_width
       ~from:(t0 +. s.Scenario.s_from) (World.engine world)
       (fun ~now:_ cands ->
          let arity = Array.length cands in
          let choice =
            match !remaining with
            | c :: rest ->
              remaining := rest;
              if c >= 0 && c < arity then c else 0
            | [] -> 0
          in
          arities := arity :: !arities;
          taken := choice :: !taken;
          choice));
  let crashed = Scenario.crashed_members sc and left = Scenario.left_members sc in
  (* Observations as of now — callable mid-run (the soak harness
     checks prefix-safe invariants on live snapshots) and once more
     after the run for the final verdict. *)
  let snapshot () =
    List.init sc.Scenario.n (fun i ->
        match members.(i) with
        | None ->
          (* Never joined (a Join fault still pending, or shrunk
             away): not a survivor, nothing observed. *)
          { Invariant.o_member = i;
            o_eid = -1;
            o_crashed = List.mem i crashed;
            o_left = true;
            o_exited = false;
            o_casts = [];
            o_views = [];
            o_final = None }
        | Some gr ->
          observation ~member:i ~crashed:(List.mem i crashed) ~left:(List.mem i left)
            (match recorders.(i) with Some r -> r | None -> empty ())
            gr)
  in
  (match observe with Some f -> f world snapshot | None -> ());
  World.run_for world ~duration:sc.Scenario.run_for;
  if Sys.getenv_opt "HORUS_DEBUG_DUMP" <> None then
    Array.iteri
      (fun i gr ->
         match gr with
         | Some gr ->
           Printf.eprintf "=== member %d ===\n" i;
           List.iter (fun l -> Printf.eprintf "  %s\n" l) (Group.dump gr)
         | None -> Printf.eprintf "=== member %d === (never joined)\n" i)
      members;
  Horus_sim.Engine.clear_chooser (World.engine world);
  let obs = snapshot () in
  (* Churn scenarios (any Join fault) are held to the churn-safe
     slice: gap-free-prefix and identical-multiset invariants assume
     every member saw the stream from cast 0, which a late joiner by
     design did not. View agreement, final agreement and
     delivery-in-view remain exact under churn. *)
  let violations =
    if late <> [] then
      Invariant.view_agreement obs
      @ Invariant.final_view_agreement obs
      @ Invariant.delivery_in_view ~tag obs
    else
      Invariant.standard
        ~total:(spec_is_total sc.Scenario.spec)
        ~tag ~sent:(sent_of sc) obs
  in
  { r_scenario = sc;
    r_obs = obs;
    r_violations = violations;
    r_choice_points = List.length !arities;
    r_arities = List.rev !arities;
    r_taken = List.rev !taken }

let failed r = r.r_violations <> []

(* A deterministic JSON image of the run: scenario, per-member
   observations, violations. Two runs of the same scenario serialize
   byte-identically — the replay command's determinism check. *)
let obs_json o =
  let module J = Horus_obs.Json in
    J.Obj
      [ ("member", J.Int o.Invariant.o_member);
        ("eid", J.Int o.Invariant.o_eid);
        ("crashed", J.Bool o.Invariant.o_crashed);
        ("left", J.Bool o.Invariant.o_left);
        ("exited", J.Bool o.Invariant.o_exited);
        ( "casts",
          J.List
            (List.map
               (fun (p, e) -> J.Obj [ ("payload", J.String p); ("epoch", J.Int e) ])
               o.Invariant.o_casts) );
        ( "views",
          J.List
            (List.map
               (fun ((ltime, coord), ms) ->
                  J.Obj
                    [ ("ltime", J.Int ltime);
                      ("coord", J.Int coord);
                      ("members", J.List (List.map (fun m -> J.Int m) ms)) ])
               o.Invariant.o_views) );
        ( "final",
          match o.Invariant.o_final with
          | None -> J.Null
          | Some (ltime, ms) ->
            J.Obj
              [ ("ltime", J.Int ltime);
                ("members", J.List (List.map (fun m -> J.Int m) ms)) ] ) ]

(* The behaviour the run exhibited, independent of how the schedule
   was specified: what every member observed, and which invariants
   broke. This is what the explorer fingerprints. *)
let outcome_json r =
  let module J = Horus_obs.Json in
  J.Obj
    [ ("violations", Invariant.to_json r.r_violations);
      ("obs", J.List (List.map obs_json r.r_obs)) ]

let to_json r =
  let module J = Horus_obs.Json in
  J.Obj
    [ ("scenario", Scenario.to_json r.r_scenario);
      ("choice_points", J.Int r.r_choice_points);
      ("arities", J.List (List.map (fun a -> J.Int a) r.r_arities));
      ("taken", J.List (List.map (fun c -> J.Int c) r.r_taken));
      ("violations", Invariant.to_json r.r_violations);
      ("obs", J.List (List.map obs_json r.r_obs)) ]

let to_string r = Horus_obs.Json.to_string ~indent:true (to_json r)

(* A cheap fingerprint of the canonical outcome JSON, for the
   explorer's distinct-outcome statistics. *)
let fingerprint r = Campaign.fingerprint (outcome_json r)
