(* The hierarchical churn soak: the acceptance experiment for scaling
   membership past one flat group — and, in ungraceful mode, the
   crash-fault campaign that holds failover to a bound.

   A population of [h_endpoints] members is split into [h_subgroups]
   sub-groups of bounded size, each running
   HIER(parent,sub):<h_spec> over a grid of shared loopback sockets:
   socket [s] hosts member [s] of every sub-group (the frame header
   cannot distinguish two local members of one group, so a socket may
   carry at most one member per gid — see {!Horus.Transport_link}).
   Sub-group [j] is rotated by [j] slots, which lands its founder —
   the oldest member, hence the coordinator, hence the HIER
   representative — on slot [j mod k], so all representatives sit on
   distinct sockets and can additionally join the parent group over
   the same socket pair.

   A {!Horus_dir.Dir_service} on its own socket is the membership
   bootstrap: every member registers its (gid, eid) -> socket-address
   binding with a lease on join and unregisters on leave, via one
   shared {!Horus_dir.Dir_client} per socket riding the reserved
   directory gid ({!Horus.Transport_link.route_raw}). With
   [h_dir_replicas] > 0 the service is primary/backup replicated and
   every client fails over through the replica ring.

   Graceful mode (M4) drives [h_waves] churn waves: in each, the
   youngest [h_wave_fraction] of every sub-group leaves (so
   representatives never move), the survivors must re-converge within
   [h_converge_bound] virtual seconds, the representatives exchange a
   burst of parent-group casts, and the leavers rejoin and the full
   membership must re-converge again.

   Ungraceful mode (M5) replaces the leaves with crashes: the youngest
   quarter of every sub-group is killed mid-flight (endpoint crashed,
   rank blocked at the waist, directory renewal abandoned — no goodbye
   of any kind), and each wave additionally takes [h_kill_coordinators]
   sub-group coordinators, un-bridging those sub-groups from the
   parent. At [h_kill_dir_wave] the directory primary is killed too,
   mid-wave, and a backup must promote. Failure detection is scripted:
   after [h_detect_delay] the oldest survivor of each wounded
   sub-group suspects its dead, and a surviving representative
   suspects the dead representatives in the parent. Each un-bridged
   sub-group must re-bridge — new coordinator elected, joined into the
   parent, full representative view re-installed — within
   [h_rebridge_bound] of the kill, with every sample recorded (and the
   layer-level [hier.rebridge_time] histogram populated).

   Coordinator kills march down from the top: wave [w] takes the
   coordinators of sub-groups [g-1-w*K .. g-(w+1)*K] (K =
   [h_kill_coordinators]). The successor representative of sub-group
   [j] is member (j, 1), which sits on slot [j+1] — a slot whose own
   representative died in the same or an earlier wave, or (for
   [j = g-1], thanks to the one spare socket ungraceful mode adds) a
   slot that never hosted one. Descending suffix blocks are exactly
   the order in which re-bridging never collides with a live parent
   member on the same socket.

   At the end the run is held to: every wave converged, every
   surviving parent member delivered every cast issued while it was
   bridged, every re-bridge within bound, directory backups promoted
   when the primary was killed, lease evictions exactly equal to the
   bindings abandoned by crashes (a surplus would be a lost
   registration for a survivor), [nak.retransmits] under the ceiling,
   and the directory's live bindings equal to the union of installed
   views — with an FNV-1a fingerprint over the canonical report for
   the CI double-run determinism gate. *)

open Horus
module Json = Horus_obs.Json
module Metrics = Horus_obs.Metrics
module T = Horus_transport
module D = Horus_dir

type config = {
  h_name : string;
  h_endpoints : int;       (* total population *)
  h_subgroups : int;       (* must be <= the sub-group size ceiling *)
  h_seed : int;
  h_spec : string;         (* sub-group stack below HIER, top first *)
  h_latency : float;       (* loopback hub latency, seconds *)
  h_join_spacing : float;  (* settle after each join *)
  h_op_gap : float;        (* gap between leaves/kills within a wave *)
  h_settle : float;        (* settle after setup, before the waves *)
  h_waves : int;
  h_wave_fraction : float; (* youngest fraction of each sub-group churned *)
  h_casts_per_wave : int;  (* parent-group casts per wave *)
  h_lease : float;         (* directory lease, seconds *)
  h_converge_bound : float;(* per-phase view-convergence budget *)
  h_check_every : float;   (* convergence poll slice *)
  h_nak_ceiling : int;     (* whole-run nak.retransmits budget *)
  h_ungraceful : bool;     (* waves crash instead of leave *)
  h_kill_coordinators : int; (* coordinators killed per ungraceful wave *)
  h_detect_delay : float;  (* crash -> scripted suspicion *)
  h_rebridge_bound : float;(* kill -> parent re-bridged budget *)
  h_dir_replicas : int;    (* directory backups behind the primary *)
  h_kill_dir_wave : int;   (* wave that kills the dir primary; -1 never *)
}

let default_config =
  { h_name = "churn";
    h_endpoints = 1000;
    h_subgroups = 32;
    h_seed = 7;
    h_spec = "MBRSHIP:NAK:COM";
    h_latency = 0.0005;
    h_join_spacing = 0.05;
    h_op_gap = 0.02;
    h_settle = 2.0;
    h_waves = 3;
    h_wave_fraction = 0.25;
    h_casts_per_wave = 8;
    h_lease = 10.0;
    h_converge_bound = 5.0;
    h_check_every = 0.05;
    h_nak_ceiling = 100;
    h_ungraceful = false;
    h_kill_coordinators = 0;
    h_detect_delay = 0.1;
    h_rebridge_bound = 5.0;
    h_dir_replicas = 0;
    h_kill_dir_wave = -1 }

let ci_config =
  { default_config with
    h_name = "churn-ci";
    h_endpoints = 256;
    h_subgroups = 8;
    h_waves = 2 }

(* M5: three ungraceful waves over the full population, nine
   coordinators and the directory primary killed along the way. *)
let m5_config =
  { default_config with
    h_name = "failover";
    h_ungraceful = true;
    h_kill_coordinators = 3;
    h_dir_replicas = 2;
    h_kill_dir_wave = 1;
    (* 705 crashes cost ~44k retransmits at this scale (measured);
       the ceiling still catches a storm at ~1.4x the healthy cost. *)
    h_nak_ceiling = 60000 }

let m5_ci_config =
  { m5_config with
    h_name = "failover-ci";
    h_endpoints = 256;
    h_subgroups = 8;
    h_waves = 2;
    h_kill_coordinators = 2;
    h_nak_ceiling = 20000 }

type wave_report = {
  w_index : int;
  w_kind : string;          (* "leave" | "kill" | "rejoin" *)
  w_members : int;          (* members churned in this phase *)
  w_converge : float option;(* virtual seconds to convergence *)
}

type report = {
  r_name : string;
  r_mode : string;             (* "graceful" | "ungraceful" *)
  r_endpoints : int;
  r_subgroups : int;
  r_sockets : int;
  r_setup_converge : float option;
  r_waves : wave_report list;
  r_parent_casts : int;        (* deliveries expected of a never-replaced member *)
  r_parent_delivered : int list;(* per-representative totals (current handles) *)
  r_parent_lost : int;         (* casts dead representatives never saw *)
  r_killed : int;              (* endpoints crashed across all waves *)
  r_killed_coordinators : int;
  r_rebridge : (int * float) list; (* (sub-group, kill -> re-bridged seconds) *)
  r_rebridge_bound : float;
  r_nak_retransmits : int;
  r_unknown_gid : int;         (* in-flight frames for just-left gids *)
  r_dir_versions : (int * int) list;  (* (gid, directory version) *)
  r_dir_match : bool;
  r_dir_notifies : int;        (* seen by the one subscribed client *)
  r_dir_evictions : int;       (* must equal the abandoned-binding count *)
  r_dir_replicas : int;
  r_dir_promotions : int;      (* backup promotions across the replica set *)
  r_dir_epoch : int;           (* serving primary's incarnation at exit *)
  r_dir_failovers : int;       (* client replica advances (exhausted budgets) *)
  r_dir_redirects : int;       (* client Not_primary redirects honoured *)
  r_violations : string list;
  r_elapsed : float;           (* virtual seconds *)
  r_fingerprint : int64;
}

let ok r = r.r_violations = []

(* One member slot of one sub-group. Rejoining after a leave or a
   crash creates a fresh endpoint incarnation (new eid) on the same
   socket: endpoint ids double as age order and the NAK layer's pair
   lanes survive view changes by design, so an eid must never be
   reused by a later incarnation — exactly the rule a real deployment
   follows. *)
type member = {
  mutable m_eid : int;
  m_slot : int;                              (* socket index *)
  mutable m_endpoint : Endpoint.t;
  mutable m_handle : Group.t option;         (* current group handle *)
  mutable m_renewal : D.Dir_client.renewal option;
  mutable m_killed : bool;                   (* crashed, not yet reincarnated *)
}

let run c =
  if c.h_subgroups < 1 then invalid_arg "Churn: subgroups must be >= 1";
  if c.h_endpoints < 2 * c.h_subgroups then
    invalid_arg "Churn: need at least two members per sub-group";
  if c.h_wave_fraction < 0.0 || c.h_wave_fraction >= 1.0 then
    invalid_arg "Churn: wave_fraction must be in [0, 1)";
  if c.h_ungraceful then begin
    if c.h_kill_coordinators < 1 then
      invalid_arg "Churn: ungraceful waves need kill_coordinators >= 1";
    if c.h_waves * c.h_kill_coordinators > c.h_subgroups - 1 then
      invalid_arg
        "Churn: coordinator kills would reach sub-group 0 (the anchor)";
    if c.h_endpoints < 3 * c.h_subgroups then
      invalid_arg "Churn: ungraceful waves need three members per sub-group";
    if c.h_kill_dir_wave >= 0 && c.h_dir_replicas < 1 then
      invalid_arg "Churn: killing the directory primary needs a backup"
  end;
  let n = c.h_endpoints and g = c.h_subgroups in
  let sizes = Array.init g (fun j -> (n / g) + if j < n mod g then 1 else 0) in
  let k = Array.fold_left max 0 sizes in
  if g > k then
    invalid_arg
      "Churn: more sub-groups than sockets — representatives would collide";
  (* Ungraceful mode adds one spare socket: the successor
     representative of sub-group g-1 lands on slot g, which must never
     have hosted a parent member (see the header comment). *)
  let ks = if c.h_ungraceful then k + 1 else k in
  let world = World.create ~seed:c.h_seed () in
  (* The engine's default per-run event budget (10M) is a
     runaway-storm guard sized for flat soaks; a 1000-endpoint grid
     legitimately clears it inside one long settle slice. Scale the
     guard with the population instead of removing it. *)
  let slice_budget = max 10_000_000 (c.h_endpoints * 100_000) in
  let module World = struct
    include Horus.World

    let run_for w ~duration = run_for ~max_events:slice_budget w ~duration
  end in
  let engine = World.engine world in
  let hub = T.Loopback.hub ~latency:c.h_latency engine in
  let link = Transport_link.create world in
  let peers = T.Peers.create () in
  let sockets =
    Array.init ks (fun s -> T.Loopback.create ~addr:(Printf.sprintf "mem:%d" s) hub)
  in
  let sock_addr s = sockets.(s).T.Backend.local_addr in
  (* The directory fabric: the primary on its own socket, backups on
     theirs, one client per member socket multiplexed over the
     reserved directory gid and failing over through the ring. *)
  let dir_addrs =
    List.init (c.h_dir_replicas + 1) (fun i ->
        if i = 0 then "dir" else Printf.sprintf "dir:%d" i)
  in
  let dir_backends =
    Array.of_list (List.map (fun a -> T.Loopback.create ~addr:a hub) dir_addrs)
  in
  let dirs =
    Array.mapi
      (fun i b ->
         D.Dir_service.create ~max_lease:(2.0 *. c.h_lease)
           ~replicas:(if c.h_dir_replicas = 0 then [] else dir_addrs)
           ~replica_index:i ~engine b)
      dir_backends
  in
  let dir_killed = Array.make (Array.length dirs) false in
  let current_dir () =
    let rec go i fallback =
      if i >= Array.length dirs then fallback
      else if (not dir_killed.(i)) && D.Dir_service.role dirs.(i) = D.Dir_service.Primary
      then dirs.(i)
      else go (i + 1) fallback
    in
    go 0 dirs.(0)
  in
  let muxes = Array.map (fun b -> Transport_link.mux link ~backend:b ~peers) sockets in
  let clients =
    Array.mapi
      (fun s m ->
         let xmit_to a = fun frame -> sockets.(s).T.Backend.send ~dest:a frame in
         let cl =
           D.Dir_client.create ~eid:(1_000_000 + s) ~engine
             ~backups:(List.map xmit_to (List.tl dir_addrs))
             (xmit_to (List.hd dir_addrs))
         in
         Transport_link.route_raw m ~gid:D.Dir_protocol.gid (D.Dir_client.rx cl);
         cl)
      muxes
  in
  World.add_metrics_exporter world (fun m ->
      Array.iteri
        (fun i d ->
           let prefix = if i = 0 then "dir" else Printf.sprintf "dir.replica%d" i in
           D.Dir_service.export_metrics ~prefix d m)
        dirs;
      D.Dir_client.export_metrics_sum (Array.to_list clients) m);
  let sub_gid = Array.init g (fun _ -> World.fresh_group_addr world) in
  let parent_gid = World.fresh_group_addr world in
  let pgid = Addr.group_id parent_gid in
  (* The grid: member (j, i) starts with eid j*k + i (so the founder
     i=0 is the oldest, stable coordinator) and lives on socket
     (i + j) mod ks (so founders occupy distinct slots). Later
     incarnations draw fresh, strictly higher eids from [next_eid]. *)
  let spec_of j = Printf.sprintf "HIER(parent=%d,sub=%d):%s" pgid j c.h_spec in
  let next_eid = ref (g * k) in
  let members =
    Array.init g (fun j ->
        Array.init sizes.(j) (fun i ->
            let eid = (j * k) + i and slot = (i + j) mod ks in
            T.Peers.add peers ~rank:eid ~addr:(sock_addr slot);
            { m_eid = eid;
              m_slot = slot;
              m_endpoint =
                Transport_link.mux_endpoint link muxes.(slot) ~rank:eid
                  ~spec:(spec_of j);
              m_handle = None;
              m_renewal = None;
              m_killed = false }))
  in
  let join_member ?contact j i =
    let m = members.(j).(i) in
    m.m_handle <- Some (Group.join ?contact ~record:false m.m_endpoint sub_gid.(j));
    m.m_renewal <-
      Some
        (D.Dir_client.keepalive clients.(m.m_slot)
           ~group:(Addr.group_id sub_gid.(j))
           ~rank:m.m_eid ~addr:(sock_addr m.m_slot) ~lease:c.h_lease)
  in
  let leave_member j i =
    let m = members.(j).(i) in
    (match m.m_handle with Some gr -> Group.leave gr | None -> ());
    (match m.m_renewal with Some rn -> D.Dir_client.release rn | None -> ());
    m.m_renewal <- None
  in
  (* The live coordinator of sub-group [j]: oldest member still
     renewing its lease — the view's coordinator once converged, and
     the HIER representative. *)
  let coordinator_index j =
    let best = ref (-1) in
    Array.iteri
      (fun i m ->
         if m.m_renewal <> None
         && (!best < 0 || m.m_eid < members.(j).(!best).m_eid)
         then best := i)
      members.(j);
    if !best < 0 then invalid_arg "Churn: sub-group emptied";
    !best
  in
  (* Convergence: every present member of every sub-group holds a view
     whose membership is exactly the present set; departing handles
     must have fully exited, crashed handles owe nothing. *)
  let eids_of v = List.sort compare (List.map Addr.endpoint_id (View.members v)) in
  let subgroup_settled j =
    let expected =
      Array.to_list members.(j)
      |> List.filter_map (fun m ->
             match (m.m_handle, m.m_renewal) with
             | Some _, Some _ -> Some m.m_eid
             | _ -> None)
      |> List.sort compare
    in
    Array.for_all
      (fun m ->
         match m.m_handle with
         | None -> true
         | Some _ when m.m_killed -> true
         | Some gr ->
           if m.m_renewal = None then Group.exited gr
           else (match Group.view gr with
                 | Some v -> eids_of v = expected
                 | None -> false))
      members.(j)
  in
  let all_settled () =
    let rec go j = j >= g || (subgroup_settled j && go (j + 1)) in
    go 0
  in
  let wait_converged pred =
    let start = World.now world in
    let rec go () =
      if pred () then Some (World.now world -. start)
      else if World.now world -. start >= c.h_converge_bound then None
      else begin
        World.run_for world ~duration:c.h_check_every;
        go ()
      end
    in
    go ()
  in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (* Watch the notification feed through one subscribed client. *)
  D.Dir_client.subscribe clients.(0) ~group:(Addr.group_id sub_gid.(0)) (fun _ -> ());
  (* Phase 1: found every sub-group and stagger the joins. *)
  for j = 0 to g - 1 do
    join_member j 0;
    World.run_for world ~duration:c.h_join_spacing
  done;
  for i = 1 to k - 1 do
    for j = 0 to g - 1 do
      if i < sizes.(j) then
        join_member ~contact:(Group.addr (Option.get members.(j).(0).m_handle)) j i
    done;
    World.run_for world ~duration:c.h_join_spacing
  done;
  World.run_for world ~duration:c.h_settle;
  let setup_converge = wait_converged all_settled in
  if setup_converge = None then violate "setup: sub-groups failed to converge";
  (* Phase 2: the representatives bridge into the parent group (their
     HIER layer is elect-only inside the parent gid itself). Each
     parent member carries its own cast ledger — expected counts what
     was cast while it was bridged, so a replaced representative's
     ledger is settled (into [parent_lost]) at replacement. *)
  let parent_delivered = Array.make g 0 in
  let parent_expected = Array.make g 0 in
  let parent_lost = ref 0 in
  let parent_join j i =
    let m = members.(j).(i) in
    let contact =
      if j = 0 && m.m_eid = 0 then None
      else Some (Endpoint.addr members.(0).(coordinator_index 0).m_endpoint)
    in
    let gr =
      Group.join ?contact ~record:false
        ~on_up:(fun ev ->
            match ev with
            | Horus_hcpi.Event.U_cast _ ->
              parent_delivered.(j) <- parent_delivered.(j) + 1
            | _ -> ())
        m.m_endpoint parent_gid
    in
    let rn =
      D.Dir_client.keepalive clients.(m.m_slot) ~group:pgid ~rank:m.m_eid
        ~addr:(sock_addr m.m_slot) ~lease:c.h_lease
    in
    (gr, rn)
  in
  let bridge =
    Array.init g (fun j ->
        let b = parent_join j 0 in
        World.run_for world ~duration:c.h_join_spacing;
        b)
  in
  let parent_handles = Array.map fst bridge in
  let parent_renewals = Array.map snd bridge in
  World.run_for world ~duration:c.h_settle;
  let parent_settled () =
    let expected =
      List.sort compare
        (List.init g (fun j -> members.(j).(coordinator_index j).m_eid))
    in
    Array.for_all
      (fun gr ->
         match Group.view gr with Some v -> eids_of v = expected | None -> false)
      parent_handles
  in
  (match wait_converged parent_settled with
   | Some _ -> ()
   | None -> violate "setup: parent group failed to converge");
  (* Phase 3: the churn waves. *)
  let waves = ref [] in
  let churn_of j = max 1 (int_of_float (c.h_wave_fraction *. float_of_int sizes.(j))) in
  let cast_seq = ref 0 in
  let killed_total = ref 0 in
  let killed_coords = ref 0 in
  let abandoned = ref 0 in
  let rebridge = ref [] in
  let do_casts w =
    for x = 0 to c.h_casts_per_wave - 1 do
      incr cast_seq;
      Group.cast parent_handles.(x mod g) (Printf.sprintf "w%d-%d" w !cast_seq);
      for j = 0 to g - 1 do
        parent_expected.(j) <- parent_expected.(j) + 1
      done;
      World.run_for world ~duration:0.01
    done;
    World.run_for world ~duration:0.2
  in
  (* Crash one member: abandon its directory renewals (the bindings
     must lapse by lease, never by a goodbye), halt its stacks, and
     block its rank at the waist so every sender drops frames for it
     on the spot. *)
  let kill_member j i =
    let m = members.(j).(i) in
    (match m.m_renewal with
     | Some rn -> D.Dir_client.abandon rn; incr abandoned
     | None -> ());
    m.m_renewal <- None;
    m.m_killed <- true;
    Endpoint.crash m.m_endpoint;
    T.Peers.block peers ~rank:m.m_eid;
    incr killed_total
  in
  let reincarnate j i ~contact =
    let m = members.(j).(i) in
    (* The old stack stays attached (and, if it exited rather than
       crashed, owns the gid route on its socket) until destroyed; the
       comeback is a NEW endpoint incarnation on the same slot. *)
    (match m.m_handle with Some gr -> Group.destroy gr | None -> ());
    m.m_handle <- None;
    m.m_killed <- false;
    let eid = !next_eid in
    incr next_eid;
    T.Peers.add peers ~rank:eid ~addr:(sock_addr m.m_slot);
    m.m_eid <- eid;
    m.m_endpoint <-
      Transport_link.mux_endpoint link muxes.(m.m_slot) ~rank:eid ~spec:(spec_of j);
    join_member ~contact j i
  in
  for w = 0 to c.h_waves - 1 do
    if not c.h_ungraceful then begin
      (* Leave wave: the youngest members of every sub-group go,
         staggered — representatives (the oldest) never move. *)
      let churned = ref 0 in
      for j = 0 to g - 1 do
        let cj = min (churn_of j) (sizes.(j) - 1) in
        for i = sizes.(j) - cj to sizes.(j) - 1 do
          leave_member j i;
          incr churned
        done;
        World.run_for world ~duration:c.h_op_gap
      done;
      let conv = wait_converged all_settled in
      if conv = None then violate "wave %d: leave phase failed to converge" w;
      waves :=
        { w_index = w; w_kind = "leave"; w_members = !churned; w_converge = conv }
        :: !waves;
      (* Parent traffic: the representatives gossip between waves. *)
      do_casts w;
      (* Rejoin wave: the same members come back through their
         sub-group's representative, and re-register. *)
      let rejoined = ref 0 in
      for j = 0 to g - 1 do
        let cj = min (churn_of j) (sizes.(j) - 1) in
        for i = sizes.(j) - cj to sizes.(j) - 1 do
          reincarnate j i
            ~contact:(Group.addr
                        (Option.get members.(j).(coordinator_index j).m_handle));
          incr rejoined;
          World.run_for world ~duration:c.h_op_gap
        done
      done;
      let conv = wait_converged all_settled in
      if conv = None then violate "wave %d: rejoin phase failed to converge" w;
      waves :=
        { w_index = w; w_kind = "rejoin"; w_members = !rejoined; w_converge = conv }
        :: !waves
    end
    else begin
      (* Kill wave: the youngest quarter of every sub-group crashes,
         and this wave's suffix block of coordinators with them. *)
      let wave_coords =
        List.sort compare
          (List.init c.h_kill_coordinators (fun x ->
               g - 1 - (w * c.h_kill_coordinators) - x))
      in
      let killed_here = ref [] in       (* (j, i), for the rejoin phase *)
      let killed_this_wave = ref 0 in
      let dead_by_group = Array.make g [] in
      let t_kill = Hashtbl.create 8 in  (* j -> kill instant, coordinators *)
      for j = 0 to g - 1 do
        let ci = coordinator_index j in
        let cj = min (churn_of j) (sizes.(j) - 2) in
        let youngest =
          Array.to_list (Array.mapi (fun i m -> (i, m)) members.(j))
          |> List.filter (fun (i, m) -> i <> ci && m.m_renewal <> None)
          |> List.sort (fun (_, a) (_, b) -> compare b.m_eid a.m_eid)
          |> List.filteri (fun x _ -> x < cj)
          |> List.map fst
        in
        let victims =
          if List.mem j wave_coords then ci :: youngest else youngest
        in
        List.iter
          (fun i ->
             dead_by_group.(j) <- members.(j).(i).m_eid :: dead_by_group.(j);
             killed_here := (j, i) :: !killed_here;
             incr killed_this_wave;
             kill_member j i)
          victims;
        if List.mem j wave_coords then begin
          Hashtbl.replace t_kill j (World.now world);
          D.Dir_client.abandon parent_renewals.(j);
          incr abandoned;
          incr killed_coords
        end;
        World.run_for world ~duration:c.h_op_gap
      done;
      (* Mid-wave, the directory primary goes down with them: service
         stopped, socket closed — a backup must promote and the
         clients must fail over. *)
      if w = c.h_kill_dir_wave && not dir_killed.(0) then begin
        D.Dir_service.stop dirs.(0);
        dir_backends.(0).T.Backend.close ();
        dir_killed.(0) <- true
      end;
      (* Scripted failure detection: after the detect delay, the
         oldest survivor of each wounded sub-group suspects its dead,
         and the anchor representative suspects the dead
         representatives in the parent. *)
      World.run_for world ~duration:c.h_detect_delay;
      for j = 0 to g - 1 do
        if dead_by_group.(j) <> [] then
          match members.(j).(coordinator_index j).m_handle with
          | Some gr ->
            Group.suspect gr (List.map Addr.endpoint dead_by_group.(j))
          | None -> ()
      done;
      let dead_rep_eids =
        (* The coordinator was killed first in its sub-group, so it is
           the last eid pushed onto that group's dead list. *)
        List.map (fun j -> List.hd (List.rev dead_by_group.(j))) wave_coords
      in
      if dead_rep_eids <> [] then
        Group.suspect parent_handles.(0) (List.map Addr.endpoint dead_rep_eids);
      let conv = wait_converged all_settled in
      if conv = None then violate "wave %d: kill phase failed to converge" w;
      waves :=
        { w_index = w; w_kind = "kill"; w_members = !killed_this_wave;
          w_converge = conv }
        :: !waves;
      (* Re-bridge: each beheaded sub-group's new coordinator joins
         the parent; settle the dead representative's cast ledger. *)
      List.iter
        (fun j ->
           parent_lost := !parent_lost + (parent_expected.(j) - parent_delivered.(j));
           parent_expected.(j) <- 0;
           parent_delivered.(j) <- 0;
           let ci = coordinator_index j in
           let gr, rn = parent_join j ci in
           parent_handles.(j) <- gr;
           parent_renewals.(j) <- rn)
        wave_coords;
      (* The re-bridge clock runs from each kill to the instant the
         successor holds the full representative view; every sample is
         held to the bound. *)
      let pending = ref wave_coords in
      let expected_reps () =
        List.sort compare
          (List.init g (fun j -> members.(j).(coordinator_index j).m_eid))
      in
      (* The poll cap runs from the LAST kill, so no sub-group is cut
         off early; each sample is still held to its own kill clock. *)
      let wave_last = List.fold_left max 0.0
          (List.map (fun j -> Hashtbl.find t_kill j) wave_coords) in
      while !pending <> []
            && World.now world -. wave_last < c.h_rebridge_bound do
        pending :=
          List.filter
            (fun j ->
               match Group.view parent_handles.(j) with
               | Some v when eids_of v = expected_reps () ->
                 let dt = World.now world -. Hashtbl.find t_kill j in
                 rebridge := (j, dt) :: !rebridge;
                 if dt > c.h_rebridge_bound then
                   violate "wave %d: sub-group %d re-bridged in %.3f s (bound %.3f)"
                     w j dt c.h_rebridge_bound;
                 false
               | _ -> true)
            !pending;
        if !pending <> [] then World.run_for world ~duration:c.h_check_every
      done;
      List.iter
        (fun j ->
           violate "wave %d: sub-group %d failed to re-bridge within %.3f s" w j
             c.h_rebridge_bound)
        !pending;
      (match wait_converged parent_settled with
       | Some _ -> ()
       | None -> violate "wave %d: parent group failed to re-converge" w);
      (* Parent traffic over the healed bridge. *)
      do_casts w;
      (* Rejoin: every crashed slot comes back as a fresh incarnation
         through the current coordinator. *)
      let rejoined = ref 0 in
      List.iter
        (fun (j, i) ->
           reincarnate j i
             ~contact:(Group.addr
                         (Option.get members.(j).(coordinator_index j).m_handle));
           incr rejoined;
           World.run_for world ~duration:c.h_op_gap)
        (List.rev !killed_here);
      let conv = wait_converged all_settled in
      if conv = None then violate "wave %d: rejoin phase failed to converge" w;
      waves :=
        { w_index = w; w_kind = "rejoin"; w_members = !rejoined; w_converge = conv }
        :: !waves
    end
  done;
  (* Final accounting: drain (past lease expiry when crashes left
     bindings to lapse), sweep, and hold the run to its bounds. *)
  World.run_for world ~duration:c.h_settle;
  if !killed_total > 0 then World.run_for world ~duration:(c.h_lease +. 1.0);
  let dcur = current_dir () in
  D.Dir_service.sweep_now dcur;
  Array.iteri
    (fun j d ->
       if d <> parent_expected.(j) then
         violate "parent: representative %d delivered %d of %d casts" j d
           parent_expected.(j))
    parent_delivered;
  let nak = Metrics.count (Metrics.counter (World.metrics world) "nak.retransmits") in
  if nak > c.h_nak_ceiling then
    violate "nak.retransmits %d exceeds ceiling %d" nak c.h_nak_ceiling;
  (* The directory must agree with the installed views: every
     sub-group's live bindings are exactly its final membership at its
     member's socket addresses, and the parent's are the reps. *)
  let dir_group_ok gid expected =
    let entries =
      List.map (fun (r, a, _) -> (r, a)) (D.Dir_service.entries dcur ~group:gid)
    in
    let want =
      List.sort compare
        (List.map (fun (eid, slot) -> (eid, sock_addr slot)) expected)
    in
    entries = want
  in
  let dir_match = ref true in
  for j = 0 to g - 1 do
    let expected =
      Array.to_list members.(j)
      |> List.filter_map (fun m ->
             if m.m_renewal <> None then Some (m.m_eid, m.m_slot) else None)
    in
    if not (dir_group_ok (Addr.group_id sub_gid.(j)) expected) then begin
      dir_match := false;
      violate "directory: sub-group %d bindings diverge from its view" j
    end
  done;
  if not (dir_group_ok pgid
            (List.init g (fun j ->
                 let m = members.(j).(coordinator_index j) in
                 (m.m_eid, m.m_slot))))
  then begin
    dir_match := false;
    violate "directory: parent bindings diverge from the representative set"
  end;
  let dir_versions =
    List.map (fun gid -> (gid, D.Dir_service.version dcur ~group:gid))
      (D.Dir_service.groups dcur)
  in
  (* Leases must account exactly: every binding a crash abandoned is
     evicted once (on whichever replica was primary when it lapsed),
     and nothing else ever is — a surplus eviction is a lost
     registration for a surviving member. *)
  let evictions =
    Array.fold_left
      (fun acc d -> acc + (D.Dir_service.stats d).D.Dir_service.s_evictions)
      0 dirs
  in
  if evictions <> !abandoned then
    violate "directory: %d lease evictions for %d abandoned bindings" evictions
      !abandoned;
  let promotions =
    Array.fold_left
      (fun acc d -> acc + (D.Dir_service.stats d).D.Dir_service.s_promotions)
      0 dirs
  in
  if c.h_kill_dir_wave >= 0 && c.h_kill_dir_wave < c.h_waves && c.h_ungraceful
  then begin
    if promotions = 0 then
      violate "directory: primary killed but no backup promoted";
    if dcur == dirs.(0) then
      violate "directory: a killed primary is still serving"
  end;
  if !killed_coords > 0
  && Metrics.observations
       (Metrics.histogram (World.metrics world) "hier.rebridge_time") = 0
  then violate "hier.rebridge_time recorded no samples";
  let notifies =
    (D.Dir_client.stats clients.(0)).D.Dir_client.c_notifies
  in
  let failovers, redirects =
    Array.fold_left
      (fun (f, r) cl ->
         let s = D.Dir_client.stats cl in
         (f + s.D.Dir_client.c_failovers, r + s.D.Dir_client.c_redirects))
      (0, 0) clients
  in
  let core = {
    r_name = c.h_name;
    r_mode = (if c.h_ungraceful then "ungraceful" else "graceful");
    r_endpoints = n;
    r_subgroups = g;
    r_sockets = ks;
    r_setup_converge = setup_converge;
    r_waves = List.rev !waves;
    r_parent_casts = c.h_waves * c.h_casts_per_wave;
    r_parent_delivered = Array.to_list parent_delivered;
    r_parent_lost = !parent_lost;
    r_killed = !killed_total;
    r_killed_coordinators = !killed_coords;
    r_rebridge = List.sort compare !rebridge;
    r_rebridge_bound = c.h_rebridge_bound;
    r_nak_retransmits = nak;
    r_unknown_gid = Transport_link.unknown_gid link;
    r_dir_versions = dir_versions;
    r_dir_match = !dir_match;
    r_dir_notifies = notifies;
    r_dir_evictions = evictions;
    r_dir_replicas = c.h_dir_replicas;
    r_dir_promotions = promotions;
    r_dir_epoch = D.Dir_service.epoch dcur;
    r_dir_failovers = failovers;
    r_dir_redirects = redirects;
    r_violations = List.rev !violations;
    r_elapsed = World.now world;
    r_fingerprint = 0L;
  } in
  core

let wave_json w =
  Json.Obj
    [ ("wave", Json.Int w.w_index);
      ("kind", Json.String w.w_kind);
      ("members", Json.Int w.w_members);
      ( "converge",
        match w.w_converge with None -> Json.Null | Some t -> Json.Float t ) ]

let core_json r =
  Json.Obj
    [ ("name", Json.String r.r_name);
      ("mode", Json.String r.r_mode);
      ("ok", Json.Bool (ok r));
      ("endpoints", Json.Int r.r_endpoints);
      ("subgroups", Json.Int r.r_subgroups);
      ("sockets", Json.Int r.r_sockets);
      ( "setup_converge",
        match r.r_setup_converge with None -> Json.Null | Some t -> Json.Float t );
      ("waves", Json.List (List.map wave_json r.r_waves));
      ("parent_casts", Json.Int r.r_parent_casts);
      ("parent_delivered", Json.List (List.map (fun d -> Json.Int d) r.r_parent_delivered));
      ("parent_lost", Json.Int r.r_parent_lost);
      ("killed", Json.Int r.r_killed);
      ("killed_coordinators", Json.Int r.r_killed_coordinators);
      ( "rebridge",
        Json.Obj
          (List.map (fun (j, t) -> (string_of_int j, Json.Float t)) r.r_rebridge) );
      ("rebridge_bound", Json.Float r.r_rebridge_bound);
      ("nak_retransmits", Json.Int r.r_nak_retransmits);
      ("unknown_gid", Json.Int r.r_unknown_gid);
      ( "dir_versions",
        Json.Obj
          (List.map (fun (gid, v) -> (string_of_int gid, Json.Int v)) r.r_dir_versions) );
      ("dir_match", Json.Bool r.r_dir_match);
      ("dir_notifies", Json.Int r.r_dir_notifies);
      ("dir_evictions", Json.Int r.r_dir_evictions);
      ("dir_replicas", Json.Int r.r_dir_replicas);
      ("dir_promotions", Json.Int r.r_dir_promotions);
      ("dir_epoch", Json.Int r.r_dir_epoch);
      ("dir_failovers", Json.Int r.r_dir_failovers);
      ("dir_redirects", Json.Int r.r_dir_redirects);
      ("violations", Json.List (List.map (fun s -> Json.String s) r.r_violations));
      ("elapsed_virtual", Json.Float r.r_elapsed) ]

let fingerprint r = Campaign.fingerprint (core_json r)

let run c =
  let core = run c in
  { core with r_fingerprint = fingerprint core }

let to_json r =
  match core_json r with
  | Json.Obj fields ->
    Json.Obj
      (fields @ [ ("fingerprint", Json.String (Printf.sprintf "%016Lx" r.r_fingerprint)) ])
  | j -> j

(* Cell [i] of a campaign: the seed offset by the cell index. *)
let cell ~shards c i =
  run { c with h_seed = c.h_seed + i; h_name = Campaign.cell_name ~shards c.h_name i }

let campaign =
  { Campaign.ok;
    fingerprint = (fun r -> r.r_fingerprint);
    key = (fun r -> Printf.sprintf "%016Lx" r.r_fingerprint);
    to_json }
