(* Benchmark and experiment harness.

   One section per experiment in DESIGN.md's per-experiment index
   (E1..E12), regenerating the quantitative content of every table and
   figure in the paper that a deterministic run can answer: simulated
   protocol metrics (wire packets, bytes, simulated seconds, crossing
   counters), which are deterministic in the seed. The wall-clock
   questions of Section 10 (where does the time go, per layer and end
   to end) are answered over real UDP by bench/perf.

   Run with: dune exec bench/main.exe
   Options:
     --json FILE   also write a machine-readable BENCH snapshot
                   (schema documented in EXPERIMENTS.md); every
                   value in it is deterministic in the seed
     --quick       CI smoke mode: reduced group sizes, heavy
                   experiments skipped
     --only IDS    run only the named experiments (comma-separated,
                   e.g. E1,E5,MBRSHIP) *)

open Horus
module J = Horus_obs.Json

let quick = ref false

let section id title = Format.printf "@.===== %s — %s =====@.@." id title

(* --- machine-readable snapshot ------------------------------------ *)

(* Sections accumulate as experiments run; written at exit when
   [--json] was given. *)
let simulated : (string * J.t) list ref = ref []

let record_sim key v = simulated := !simulated @ [ (key, v) ]

let write_json path =
  let doc =
    J.Obj
      [ ("schema", J.String "horus-bench/1");
        ("paper", J.String "A Framework for Protocol Composition in Horus (PODC '95)");
        ( "simulated",
          J.Obj
            (("note", J.String "deterministic in the seed") :: !simulated) );
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string ~indent:true doc);
  close_out oc;
  Format.printf "@.wrote %s@." path

(* ------------------------------------------------------------------ *)
(* E1 / Figure 1: run-time stack assembly                              *)
(* ------------------------------------------------------------------ *)

let e1_specs =
  [ "COM";
    "NAK:COM";
    "TOTAL:MBRSHIP:FRAG:NAK:COM";
    "TOTAL:MBRSHIP:FRAG:COMPRESS:ENCRYPT:SIGN:NAK:CHKSUM:COM" ]

(* One dump downcall through each stack assembled from its spec string,
   with the per-layer crossing counters it generates. *)
let e1_stack_assembly () =
  section "E1" "Figure 1: protocol layers assemble at run time";
  Horus_layers.Init.register_all ();
  let engine = Horus_sim.Engine.create () in
  record_sim "e1_crossings"
    (J.Obj
       (List.map
          (fun spec ->
             let metrics = Horus_obs.Metrics.create () in
             let stack =
               Horus_hcpi.Stack.create ~engine ~endpoint:(Addr.endpoint 0)
                 ~group:(Addr.group 0) ~prng:(Horus_util.Prng.create 1)
                 ~transport:
                   { Horus_hcpi.Layer.xmit = (fun ~dsts:_ _ -> ()); local_node = 0; mtu = 65536 }
                 ~rendezvous:Horus_hcpi.Layer.null_rendezvous ~metrics
                 ~trace:(fun ~layer:_ ~category:_ _ -> ())
                 ~to_app:(fun _ -> ())
                 ~to_below:(fun _ -> ())
                 (Spec.resolve (Spec.parse spec))
             in
             Horus_hcpi.Stack.down stack Horus_hcpi.Event.D_dump;
             Format.printf "  %-56s depth %d@." spec (Horus_hcpi.Stack.depth stack);
             (spec, J.Obj [ ("metrics", Horus_obs.Metrics.to_json metrics) ]))
          e1_specs))

(* ------------------------------------------------------------------ *)
(* E4 / Tables 3+4: property algebra                                   *)
(* ------------------------------------------------------------------ *)

let e4_property_algebra () =
  section "E4" "Tables 3 and 4: property derivation and stack synthesis";
  let module P = Horus_props.Property in
  let module Check = Horus_props.Check in
  let net = P.Set.of_numbers [ 1 ] in
  let sec7 = [ "TOTAL"; "MBRSHIP"; "FRAG"; "NAK"; "COM" ] in
  (match Check.derive_names ~net sec7 with
   | Ok props ->
     Format.printf "derived for TOTAL:MBRSHIP:FRAG:NAK:COM over {P1}: %a@." P.Set.pp props;
     Format.printf "paper (Section 7) says:                          {P3,P4,P6,P8,P9,P10,P11,P12,P15}@."
   | Error e -> Format.printf "derivation failed: %a@." Check.pp_error e)

(* ------------------------------------------------------------------ *)
(* E5 / Figure 2: flush latency vs group size                          *)
(* ------------------------------------------------------------------ *)

let e5_flush_latency () =
  section "E5" "Figure 2: crash-to-new-view latency vs group size";
  Format.printf "(includes the ~0.25 s failure-detection timeout of the NAK status protocol)@.@.";
  let sizes = if !quick then [ 2; 3; 4 ] else [ 2; 3; 4; 6; 8; 12; 16 ] in
  let snapshot_n = 4 in
  let latencies = ref [] in
  Format.printf "  %6s  %14s@." "n" "flush latency";
  List.iter
    (fun n ->
       (* Snapshot the world metrics of one representative size so the
          JSON carries E5's per-layer crossings and wire stats. *)
       let on_world world =
         if n = snapshot_n then
           record_sim "e5_metrics"
             (J.Obj
                [ ("n", J.Int n);
                  ("stack", J.String "MBRSHIP:FRAG:NAK:COM");
                  ("metrics", World.metrics_json world) ])
       in
       match Scenarios.flush_latency ~on_world ~n () with
       | Some dt ->
         latencies := (Printf.sprintf "n%d" n, J.Float dt) :: !latencies;
         Format.printf "  %6d  %11.3f s@." n dt
       | None ->
         latencies := (Printf.sprintf "n%d" n, J.Null) :: !latencies;
         Format.printf "  %6d  %14s@." n "did not settle")
    sizes;
  record_sim "e5_flush_latency_s" (J.Obj (List.rev !latencies));
  Format.printf "@.  %6s  %14s@." "n" "join latency";
  List.iter
    (fun n ->
       match Scenarios.join_latency ~n () with
       | Some dt -> Format.printf "  %6d  %11.3f s@." n dt
       | None -> Format.printf "  %6d  %14s@." n "did not settle")
    (if !quick then [ 2 ] else [ 2; 4; 8 ])

(* ------------------------------------------------------------------ *)
(* E7 / Section 7 + Section 10: pay only for what you use              *)
(* ------------------------------------------------------------------ *)

let e7_pay_for_what_you_use () =
  section "E7" "Section 7 stack: richer stacks cost more (pay for what you use)";
  let n = 4 in
  Format.printf "4 members, 50 casts of 100 bytes from member 0; wire cost per cast:@.@.";
  Format.printf "  %-38s %12s %12s %10s@." "stack" "packets/msg" "bytes/msg" "complete";
  let rows = ref [] in
  List.iter
    (fun (spec, membership) ->
       let c = Scenarios.traffic_cost ~spec ~n ~membership () in
       rows :=
         J.Obj
           [ ("stack", J.String spec);
             ("packets_per_msg", J.Float c.Scenarios.packets_per_msg);
             ("bytes_per_msg", J.Float c.Scenarios.bytes_per_msg);
             ("overhead_bytes_per_msg", J.Float c.Scenarios.overhead_bytes_per_msg);
             ("delivered_everywhere", J.Bool c.Scenarios.delivered_everywhere) ]
         :: !rows;
       Format.printf "  %-38s %12.2f %12.1f %10b@." spec c.Scenarios.packets_per_msg
         c.Scenarios.bytes_per_msg c.Scenarios.delivered_everywhere)
    [ ("COM", false);
      ("NAK:COM", false);
      ("FRAG:NAK:COM", false);
      ("MBRSHIP:FRAG:NAK:COM", true);
      ("TOTAL:MBRSHIP:FRAG:NAK:COM", true);
      ("ORDER_CAUSAL:MBRSHIP:FRAG:NAK:COM", true);
      ("BATCH(window=0.02):MBRSHIP:FRAG:NAK:COM", true) ];
  record_sim "e7_traffic" (J.List (List.rev !rows));
  Format.printf
    "@.shape check: every added property costs packets/bytes; the bare stack@.\
     carries (n-1) packets per cast and nothing else. Most of the full@.\
     stack's per-cast figure is background gossip amortized over this@.\
     modest rate; BATCH trims the data-packet share (the only share it@.\
     can), composing like any other layer.@."

(* ------------------------------------------------------------------ *)
(* E11 / Section 9-10: STABLE vs PINWHEEL economics                    *)
(* ------------------------------------------------------------------ *)

let e11_stability () =
  section "E11" "Sections 9-10: STABLE vs PINWHEEL (an application chooses what is optimal)";
  Format.printf "wire traffic under steady load (100 casts/s from member 0), packets per@.\
simulated second; baseline = same stack without a stability layer:@.@.";
  Format.printf "  %4s  %13s  %13s  %13s@." "n" "baseline" "STABLE" "PINWHEEL";
  List.iter
    (fun n ->
       let b, _ = Scenarios.loaded_traffic ~spec:"MBRSHIP:FRAG:NAK:COM" ~n () in
       let s, _ = Scenarios.loaded_traffic ~spec:"STABLE:MBRSHIP:FRAG:NAK:COM" ~n () in
       let p, _ = Scenarios.loaded_traffic ~spec:"PINWHEEL:MBRSHIP:FRAG:NAK:COM" ~n () in
       Format.printf "  %4d  %10.0f /s  %10.0f /s  %10.0f /s@." n b s p)
    [ 3; 6; 9; 12 ];
  Format.printf "@.stability convergence latency for one message (n=4):@.";
  List.iter
    (fun spec ->
       match Scenarios.stability_latency ~spec ~n:4 () with
       | Some dt -> Format.printf "  %-34s %8.3f s@." spec dt
       | None -> Format.printf "  %-34s %8s@." spec "timeout")
    [ "STABLE:MBRSHIP:FRAG:NAK:COM"; "PINWHEEL:MBRSHIP:FRAG:NAK:COM" ];
  Format.printf
    "@.shape check: STABLE's all-to-all gossip grows ~n^2 and converges fast;@.\
     PINWHEEL stays ~n and converges more slowly — exactly the trade-off the@.\
     paper says applications should pick between.@."

(* ------------------------------------------------------------------ *)
(* E12 / Sections 5+9: membership ablation (MBRSHIP vs FLUSH:BMS vs VSS:BMS) *)
(* ------------------------------------------------------------------ *)

let e12_membership_ablation () =
  section "E12" "Sections 5, 9, 11: one view change, three implementations";
  Format.printf "membership-protocol control messages (flush requests, replies,@.\
forwarded copies, installs, state exchanges) for one crash-driven view@.\
change, summed over survivors — background gossip excluded:@.@.";
  Format.printf "  %4s  %14s  %14s  %14s@." "n" "MBRSHIP" "FLUSH:BMS" "VSS:BMS";
  List.iter
    (fun n ->
       let cost spec layers =
         match Scenarios.view_change_cost ~spec ~layers ~n () with
         | Some c -> string_of_int c
         | None -> "stuck"
       in
       Format.printf "  %4d  %14s  %14s  %14s@." n
         (cost "MBRSHIP:FRAG:NAK:COM" [ "MBRSHIP" ])
         (cost "FLUSH:BMS:FRAG:NAK:COM" [ "FLUSH"; "BMS" ])
         (cost "VSS:BMS:FRAG:NAK:COM" [ "VSS"; "BMS" ]))
    [ 3; 5; 7 ];
  Format.printf
    "@.shape check: the decomposed stacks pay extra for their second protocol@.\
     round; VSS's all-to-all exchange grows fastest — composition has a@.\
     price, which is why production Horus fused layers (Section 8).@."

(* ------------------------------------------------------------------ *)
(* TOTAL agreement latency (supports Section 7's liveness discussion)  *)
(* ------------------------------------------------------------------ *)

let e_total_latency () =
  section "E7b" "Section 7: TOTAL agreement latency vs group size";
  Format.printf "  %4s  %18s  %8s@." "n" "all-delivered" "agreed";
  List.iter
    (fun n ->
       match Scenarios.total_order_latency ~n () with
       | Some (dt, agreed) -> Format.printf "  %4d  %15.3f s  %8b@." n dt agreed
       | None -> Format.printf "  %4d  %18s  %8s@." n "timeout" "-")
    [ 2; 3; 5; 8 ]

(* ------------------------------------------------------------------ *)
(* E13: failure-detection period ablation                              *)
(* ------------------------------------------------------------------ *)

let e13_detection_ablation () =
  section "E13" "ablation: failure-detection period (NAK status protocol)";
  Format.printf "the status period drives both the background cost and how fast@.\
crashes are detected (suspicion fires after 5 missed periods):@.@.";
  Format.printf "  %12s  %16s  %18s@." "period" "idle packets/s" "crash-to-view";
  List.iter
    (fun period ->
       let spec =
         Printf.sprintf "MBRSHIP:FRAG:NAK(status_period=%g):COM" period
       in
       let idle, _ = Scenarios.loaded_traffic ~cast_every:0.0 ~spec ~n:4 () in
       let flush =
         match Scenarios.flush_latency ~spec ~n:4 () with
         | Some dt -> Printf.sprintf "%.3f s" dt
         | None -> "did not settle"
       in
       Format.printf "  %9.0f ms  %13.1f /s  %18s@." (period *. 1000.0) idle flush)
    [ 0.01; 0.025; 0.05; 0.1; 0.2 ];
  Format.printf
    "@.shape check: detection latency ~ 6x the period; background cost ~ 1/period —@.\
the classic failure-detector trade-off, tunable per stack instance at run time.@."

(* ------------------------------------------------------------------ *)
(* M1: Section 8 — exhaustive model checking                           *)
(* ------------------------------------------------------------------ *)

let m1_models () =
  section "M1" "Section 8: exhaustive reference-model checking";
  let run name explore =
    let r = explore () in
    Format.printf "  %-44s states=%-7d terminals=%-5d violations=%d%s@." name
      r.Horus_model.Automaton.states_explored r.Horus_model.Automaton.terminals
      (List.length r.Horus_model.Automaton.violations)
      (if r.Horus_model.Automaton.truncated then " TRUNCATED" else "")
  in
  let flush ~ignore_stragglers ~survivor_cast () =
    let module Sys =
      (val Horus_model.Flush_model.system ~ignore_stragglers ~survivor_cast ()
        : Horus_model.Automaton.SYSTEM
        with type state = Horus_model.Flush_model.state
         and type action = Horus_model.Flush_model.action)
    in
    let module E = Horus_model.Automaton.Make (Sys) in
    E.explore ()
  in
  run "flush protocol (with Section 5 ignore rule)"
    (flush ~ignore_stragglers:true ~survivor_cast:true);
  run "flush protocol (rule removed: must violate)"
    (flush ~ignore_stragglers:false ~survivor_cast:false);
  (let module Sys =
     (val Horus_model.Total_model.system ()
       : Horus_model.Automaton.SYSTEM
       with type state = Horus_model.Total_model.state
        and type action = Horus_model.Total_model.action)
   in
   let module E = Horus_model.Automaton.Make (Sys) in
   run "TOTAL token protocol" (fun () -> E.explore ~max_states:2_000_000 ()));
  (let module Sys =
     (val Horus_model.Takeover_model.system ()
       : Horus_model.Automaton.SYSTEM
       with type state = Horus_model.Takeover_model.state
        and type action = Horus_model.Takeover_model.action)
   in
   let module E = Horus_model.Automaton.Make (Sys) in
   run "coordinator takeover" (fun () -> E.explore ()));
  Format.printf
    "@.shape check: the hardened models hold over every interleaving; removing@.\
the Section 5 rule reproduces the straggler violation on demand.@."

(* ------------------------------------------------------------------ *)
(* MBRSHIP: a full membership scenario with its metrics snapshot       *)
(* ------------------------------------------------------------------ *)

(* The observability counterpart of E7's MBRSHIP row: run the stack
   under traffic and export the complete world registry — per-layer
   HCPI crossings, engine dispatch-delay histogram, wire stats — as
   one deterministic JSON object. *)
let e_mbrship_metrics () =
  section "MBRSHIP" "membership scenario under traffic, full metrics registry";
  let spec = "MBRSHIP:FRAG:NAK:COM" and n = 4 in
  let snapshot = ref J.Null in
  let c =
    Scenarios.traffic_cost ~spec ~n ~membership:true
      ~on_world:(fun world -> snapshot := World.metrics_json world)
      ()
  in
  record_sim "mbrship"
    (J.Obj
       [ ("stack", J.String spec);
         ("n", J.Int n);
         ("packets_per_msg", J.Float c.Scenarios.packets_per_msg);
         ("bytes_per_msg", J.Float c.Scenarios.bytes_per_msg);
         ("delivered_everywhere", J.Bool c.Scenarios.delivered_everywhere);
         ("metrics", !snapshot) ]);
  (match !snapshot with
   | J.Obj _ as m ->
     let crossing key = Option.bind (J.path [ "counters"; key ] m) J.to_int in
     Format.printf "  %-28s %10s@." "counter" "value";
     List.iter
       (fun layer ->
          match crossing ("hcpi.down." ^ layer) with
          | Some v -> Format.printf "  %-28s %10d@." ("hcpi.down." ^ layer) v
          | None -> ())
       [ "MBRSHIP"; "FRAG"; "NAK"; "COM" ];
     (match Option.bind (J.path [ "counters"; "net.sent" ] m) J.to_int with
      | Some v -> Format.printf "  %-28s %10d@." "net.sent" v
      | None -> ())
   | _ -> ());
  Format.printf
    "@.the same registry every layer, the engine and the network feed;@.\
     with --json the full snapshot lands in the BENCH file.@."

(* ------------------------------------------------------------------ *)
(* T3 / Section 10 item 2: the fused fast path                         *)
(* ------------------------------------------------------------------ *)

(* The deterministic companion of E2/E8 (whose wall-clock side is
   bench/perf's hcpi attribution): a 2-member world on the
   section-7 stack padded with NOOP layers, member 0 casting a paced
   stream. With the fast path on, steady-state casts run through the
   compiled closure pair — inert padding is skipped outright, so the
   crossings-per-cast histogram stays flat (five participants) while
   the stack depth grows; unfused, every cast crosses every layer.
   Each depth also cross-checks delivery equivalence fused vs
   unfused. *)
let t3_world ~fastpath ~noops =
  let spec =
    String.concat ":"
      (List.init noops (fun _ -> "NOOP")
       @ [ "TOTAL"; "MBRSHIP"; "FRAG"; "NAK"; "COM" ])
  in
  let world = World.create ~seed:7 () in
  let g = World.fresh_group_addr world in
  let founder = Group.join ~fastpath (Endpoint.create world ~spec) g in
  World.run_for world ~duration:0.3;
  let other =
    Group.join ~fastpath ~contact:(Group.addr founder) (Endpoint.create world ~spec) g
  in
  World.run_for world ~duration:3.0;
  for i = 1 to 20 do
    Group.cast founder (Printf.sprintf "t3-%d" i);
    World.run_for world ~duration:0.05
  done;
  World.run_for world ~duration:1.0;
  (world, [ Group.casts founder; Group.casts other ])

let t3_fastpath () =
  section "T3" "Section 10(2): fused fast path — crossings per cast flat in depth";
  Horus_layers.Init.register_all ();
  Format.printf "2 members, 20 casts; NOOP padding on top of the section-7 stack:@.@.";
  Format.printf "  %5s  %10s  %13s  %9s  %12s  %13s  %10s@." "depth" "send_fused"
    "deliver_fused" "fallbacks" "cast-xings" "all-ops-xings" "equivalent";
  let rows = ref [] in
  List.iter
    (fun noops ->
       let depth = noops + 5 in
       let world, fused_casts = t3_world ~fastpath:true ~noops in
       let _, plain_casts = t3_world ~fastpath:false ~noops in
       let m = World.metrics world in
       let count name = Horus_obs.Metrics.count (Horus_obs.Metrics.counter m name) in
       let h = Horus_obs.Metrics.histogram m "fastpath.crossings_per_cast" in
       let crossings =
         match Horus_obs.Metrics.observations h with
         | 0 -> 0.0
         | n -> Horus_obs.Metrics.sum h /. float_of_int n
       in
       let fallbacks = count "fastpath.send_fallback" + count "fastpath.deliver_fallback" in
       let equivalent = fused_casts = plain_casts in
       (* Send-side crossings per application cast: a fused cast
          crosses the five non-inert layers, a fallback crosses the
          whole stack. (The histogram mean above also counts control
          packets, which always take the full path.) *)
       let cast_crossings =
         let fused = count "fastpath.send_fused"
         and fell = count "fastpath.send_fallback" in
         if fused + fell = 0 then 0.0
         else
           float_of_int ((fused * 5) + (fell * depth)) /. float_of_int (fused + fell)
       in
       rows :=
         J.Obj
           [ ("stack_depth", J.Int depth);
             ("send_fused", J.Int (count "fastpath.send_fused"));
             ("deliver_fused", J.Int (count "fastpath.deliver_fused"));
             ("fallbacks", J.Int fallbacks);
             ("cast_send_crossings", J.Float cast_crossings);
             ("all_ops_crossings", J.Float crossings);
             ("equivalent_deliveries", J.Bool equivalent) ]
         :: !rows;
       Format.printf "  %5d  %10d  %13d  %9d  %12.1f  %13.1f  %10b@." depth
         (count "fastpath.send_fused") (count "fastpath.deliver_fused") fallbacks
         cast_crossings crossings equivalent)
    [ 0; 2; 6; 10 ];
  record_sim "t3_fastpath" (J.List (List.rev !rows));
  Format.printf
    "@.shape check: cast crossings stay at 5 (the non-inert layers) at every@.\
     depth — the full path's figure is the depth itself, which is what the@.\
     all-ops column (control packets included) drifts toward.@."

(* ------------------------------------------------------------------ *)
(* M4: hierarchical churn — directory + HIER + mux at bench scale      *)
(* ------------------------------------------------------------------ *)

(* The M4 soak (EXPERIMENTS.md) shrunk to a deterministic smoke shape:
   64 endpoints in 8 HIER sub-groups over 8 multiplexed sockets with
   the directory, one leave+rejoin wave. Everything recorded is a pure
   function of the seed, so it sits under the bench gate: a change
   that slows convergence past the poll slice, starts retransmitting,
   leaks leases or perturbs the fingerprint turns the build red. *)
let m4_churn () =
  section "M4" "hierarchical churn: directory + HIER + mux (bench shape)";
  Horus_layers.Init.register_all ();
  let module C = Horus_check.Churn in
  let config =
    { C.ci_config with
      C.h_name = "bench-m4";
      h_endpoints = 64;
      h_subgroups = 8;
      h_waves = 1;
      h_casts_per_wave = 4 }
  in
  let r = C.run config in
  let phases = Option.to_list r.C.r_setup_converge
               @ List.filter_map (fun w -> w.C.w_converge) r.C.r_waves in
  let all_converged =
    Option.is_some r.C.r_setup_converge
    && List.for_all (fun w -> Option.is_some w.C.w_converge) r.C.r_waves
  in
  let worst = List.fold_left Float.max 0.0 phases in
  Format.printf
    "  %d endpoints / %d sub-groups / %d sockets: %d phases, worst converge \
     %.2fs, nak.retransmits %d, unknown_gid %d, fingerprint %016Lx@."
    r.C.r_endpoints r.C.r_subgroups r.C.r_sockets (List.length phases) worst
    r.C.r_nak_retransmits r.C.r_unknown_gid r.C.r_fingerprint;
  record_sim "m4_churn"
    (J.Obj
       [ ("endpoints", J.Int r.C.r_endpoints);
         ("subgroups", J.Int r.C.r_subgroups);
         ("sockets", J.Int r.C.r_sockets);
         ("ok", J.Bool (C.ok r));
         ("all_phases_converged", J.Bool all_converged);
         ("worst_converge", J.Float worst);
         ("parent_casts", J.Int r.C.r_parent_casts);
         ("nak_retransmits", J.Int r.C.r_nak_retransmits);
         ("unknown_gid", J.Int r.C.r_unknown_gid);
         ("dir_evictions", J.Int r.C.r_dir_evictions);
         ("fingerprint", J.String (Printf.sprintf "%016Lx" r.C.r_fingerprint)) ])

(* ------------------------------------------------------------------ *)
(* M5: crash-fault campaign — ungraceful failover at bench scale       *)
(* ------------------------------------------------------------------ *)

(* The M5 campaign (EXPERIMENTS.md) shrunk to a deterministic smoke
   shape: the M4 grid driven through one ungraceful wave — a
   coordinator and the directory primary killed without a goodbye.
   The recorded fingerprint pins the whole failover path: scripted
   suspicion, HIER re-bridging, backup promotion and client failover.
   The lease clears a worst-case renewal issued into the primary
   outage (half-lease cadence + a full per-replica retry budget at the
   RTO ceiling), so no survivor binding is ever evicted. *)
let m5_failover () =
  section "M5" "crash-fault campaign: ungraceful failover (bench shape)";
  Horus_layers.Init.register_all ();
  let module C = Horus_check.Churn in
  let config =
    { C.m5_ci_config with
      C.h_name = "bench-m5";
      h_endpoints = 64;
      h_subgroups = 8;
      h_waves = 1;
      h_casts_per_wave = 4;
      h_kill_coordinators = 1;
      h_dir_replicas = 1;
      h_kill_dir_wave = 0;
      h_lease = 20.0;
      h_nak_ceiling = 4000 }
  in
  let r = C.run config in
  let worst_rebridge =
    List.fold_left (fun a (_, dt) -> Float.max a dt) 0.0 r.C.r_rebridge
  in
  Format.printf
    "  %d endpoints / %d sub-groups: killed %d (%d coordinators), worst \
     re-bridge %.2fs, promotions %d, failovers %d, evictions %d, fingerprint \
     %016Lx@."
    r.C.r_endpoints r.C.r_subgroups r.C.r_killed r.C.r_killed_coordinators
    worst_rebridge r.C.r_dir_promotions r.C.r_dir_failovers r.C.r_dir_evictions
    r.C.r_fingerprint;
  record_sim "m5_failover"
    (J.Obj
       [ ("endpoints", J.Int r.C.r_endpoints);
         ("subgroups", J.Int r.C.r_subgroups);
         ("ok", J.Bool (C.ok r));
         ("killed", J.Int r.C.r_killed);
         ("killed_coordinators", J.Int r.C.r_killed_coordinators);
         ("worst_rebridge", J.Float worst_rebridge);
         ("parent_lost", J.Int r.C.r_parent_lost);
         ("dir_promotions", J.Int r.C.r_dir_promotions);
         ("dir_epoch", J.Int r.C.r_dir_epoch);
         ("dir_failovers", J.Int r.C.r_dir_failovers);
         ("dir_redirects", J.Int r.C.r_dir_redirects);
         ("dir_evictions", J.Int r.C.r_dir_evictions);
         ("nak_retransmits", J.Int r.C.r_nak_retransmits);
         ("fingerprint", J.String (Printf.sprintf "%016Lx" r.C.r_fingerprint)) ])

(* ------------------------------------------------------------------ *)
(* M6: sharded multi-core driver — work conservation vs shard count   *)
(* ------------------------------------------------------------------ *)

(* The M6 experiment (EXPERIMENTS.md): a fixed population of endpoints
   in small groups, placed on engine shards by gid-hash affinity
   ([Shard.shard_of]) and driven flat-out, each shard an OCaml domain
   running its own deterministic world. The total work is fixed while
   the shard count varies; every per-shard cell is an ordinary
   single-threaded run, so the recorded delivery totals are exact and
   deterministic no matter how the domains interleave. Each non-zero
   shard posts a digest frame to shard 0's mailbox, so the SPSC rings
   and the fabric's dispatch counters are exercised. The bench gate
   pins conservation (every group delivered every cast to every member
   at every shard count) and the digest/mailbox counters. The
   wall-clock cost of a cross-shard hop under load is bench/perf's
   [cross-shard] workload. *)

module Shard = Horus_transport.Shard

let m6_run ~shards ~groups ~group_size ~casts_per_group =
  let spec = "NAK:COM" in
  let fabric = Shard.create shards in
  let digest me delivered =
    { Shard.m_src = Printf.sprintf "m6-shard-%d" me;
      m_frame = Bytes.of_string (Printf.sprintf "m6:%d:%d" me delivered) }
  in
  let per_shard =
    Shard.run fabric (fun ctx ->
        let me = ctx.Shard.sx_id in
        let world = World.create ~seed:(11 + me) () in
        let mine = ref [] in
        for k = 0 to groups - 1 do
          if Shard.shard_of fabric k = me then begin
            let g = World.fresh_group_addr world in
            let founder = Group.join (Endpoint.create world ~spec) g in
            let rest =
              List.init (group_size - 1) (fun _ ->
                  Group.join ~contact:(Group.addr founder)
                    (Endpoint.create world ~spec) g)
            in
            mine := (founder :: rest) :: !mine
          end
        done;
        let mine = List.rev !mine in
        World.run_for world ~duration:0.2;
        List.iter Scenarios.install_symmetric_views mine;
        List.iter
          (fun members ->
             let arr = Array.of_list members in
             for i = 0 to casts_per_group - 1 do
               let sender = arr.(i mod Array.length arr) in
               World.after world ~delay:(0.002 *. float_of_int i) (fun () ->
                   Group.cast sender "0123456789abcdef0123456789abcdef")
             done)
          mine;
        World.run_for world
          ~duration:((0.002 *. float_of_int casts_per_group) +. 1.0);
        let delivered =
          List.fold_left
            (fun acc members ->
               List.fold_left
                 (fun a m -> a + List.length (Group.casts m))
                 acc members)
            0 mine
        in
        if me > 0 then ignore (Shard.post fabric ~from:me ~to_:0 (digest me delivered));
        (List.length mine, delivered))
  in
  (* The caller's domain ran shard 0, so it is the consumer side of
     shard 0's inboxes; every producer has joined by now. *)
  let digests = ref [] in
  ignore
    (Shard.drain fabric ~me:0 (fun m ->
         digests := Bytes.to_string m.Shard.m_frame :: !digests));
  let obs = Horus_obs.Metrics.create () in
  Shard.export_metrics fabric obs;
  (per_shard, List.sort compare !digests, Horus_obs.Metrics.to_json obs)

let m6_sharding () =
  section "M6" "sharded driver: fixed work, 1/2/4 engine shards";
  Horus_layers.Init.register_all ();
  let endpoints = if !quick then 96 else 1000 in
  let group_size = 4 in
  let groups = endpoints / group_size in
  let casts_per_group = if !quick then 8 else 20 in
  let expected = groups * casts_per_group * group_size in
  Format.printf
    "  %d endpoints in %d groups of %d, %d casts per group (%d deliveries \
     expected), gid-hash placement:@.@."
    endpoints groups group_size casts_per_group expected;
  Format.printf "  %7s %10s %9s@." "shards" "delivered" "digests";
  let sim_rows = ref [] in
  List.iter
    (fun shards ->
       let per_shard, digests, obs = m6_run ~shards ~groups ~group_size ~casts_per_group in
       let delivered = Array.fold_left (fun a (_, d) -> a + d) 0 per_shard in
       sim_rows :=
         J.Obj
           [ ("shards", J.Int shards);
             ("groups_per_shard",
              J.List (Array.to_list (Array.map (fun (g, _) -> J.Int g) per_shard)));
             ("delivered", J.Int delivered);
             ("work_conserved", J.Bool (delivered = expected));
             ("digests", J.Int (List.length digests));
             ("shard_obs", obs) ]
         :: !sim_rows;
       Format.printf "  %7d %10d %9d@." shards delivered (List.length digests))
    [ 1; 2; 4 ];
  record_sim "m6_sharding"
    (J.Obj
       [ ("endpoints", J.Int endpoints);
         ("groups", J.Int groups);
         ("casts_per_group", J.Int casts_per_group);
         ("expected_deliveries", J.Int expected);
         ("runs", J.List (List.rev !sim_rows)) ]);
  Format.printf
    "@.shape check: delivery totals are identical at every shard count (the@.\
     sharding is invisible above the waist).@."

(* ------------------------------------------------------------------ *)
(* driver                                                              *)
(* ------------------------------------------------------------------ *)

(* [true] marks experiments cheap enough for the CI smoke run
   (--quick); the rest only run in a full pass. *)
let experiments =
  [ ("E1", true, e1_stack_assembly);
    ("E4", true, e4_property_algebra);
    ("E5", true, e5_flush_latency);
    ("E7", true, e7_pay_for_what_you_use);
    ("E7b", false, e_total_latency);
    ("E11", false, e11_stability);
    ("E12", false, e12_membership_ablation);
    ("E13", false, e13_detection_ablation);
    ("MBRSHIP", true, e_mbrship_metrics);
    ("T3", true, t3_fastpath);
    ("M4", true, m4_churn);
    ("M5", true, m5_failover);
    ("M6", true, m6_sharding);
    ("M1", false, m1_models) ]

let () =
  let json_path = ref None in
  let only = ref None in
  let args =
    [ ("--json", Arg.String (fun f -> json_path := Some f),
       "FILE  also write a machine-readable snapshot to FILE");
      ("--quick", Arg.Set quick,
       "  CI smoke mode: reduced sizes, heavy experiments skipped");
      ("--only", Arg.String (fun s -> only := Some (String.split_on_char ',' s)),
       "IDS  run only these comma-separated experiments (e.g. E1,E5,MBRSHIP)") ]
  in
  Arg.parse args
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "Horus experiment harness";
  let selected (id, cheap, _) =
    match !only with
    | Some ids -> List.mem id ids
    | None -> cheap || not !quick
  in
  Format.printf "Horus protocol-composition framework: experiment harness@.";
  Format.printf "(paper: van Renesse et al., PODC '95; see DESIGN.md and EXPERIMENTS.md)@.";
  List.iter (fun ((_, _, run) as e) -> if selected e then run ()) experiments;
  (match !json_path with Some path -> write_json path | None -> ());
  Format.printf "@.done.@."
