(* horus_info: command-line front end to the catalogue, the property
   algebra, the simulator, the checkers and the UDP deployment.

     horus_info layers            - Figure 1: the layer library
     horus_info table3            - Table 3: requires/provides/inherits
     horus_info table4            - Table 4: the sixteen properties
     horus_info check SPEC        - well-formedness + derived properties
     horus_info synth P6,P9,...   - minimal stack for a requirement set
     horus_info order UP LOW      - does stacking order matter? (Section 8)
     horus_info simulate          - a live group scenario, what each member saw
     horus_info metrics           - the same, dumping the metrics registry
     horus_info replay FILE       - re-run a repro file, check its outcome
     horus_info explore           - systematic dispatch-schedule search
     horus_info soak              - invariant-checked chaos soak
     horus_info churn             - hierarchical churn soak (M4/M5)
     horus_info conformance       - stacks vs their algebra-derived contracts
     horus_info dir ...           - the rank directory over UDP
     horus_info node ...          - one member of a real UDP deployment
     horus_info ping ...          - transport-level reachability check

   Run with: dune exec bin/horus_info.exe -- <command> [args] *)

open Cmdliner

let init () = Horus_layers.Init.register_all ()

let layers_cmd =
  let run () =
    init ();
    Format.printf "%-14s %-18s %s@." "layer" "protocol type" "description";
    Format.printf "%s@." (String.make 100 '-');
    List.iter
      (fun e ->
         Format.printf "%-14s %-18s %s@." e.Horus_hcpi.Registry.name
           e.Horus_hcpi.Registry.protocol_type e.Horus_hcpi.Registry.description)
      (Horus_hcpi.Registry.all ())
  in
  Cmd.v (Cmd.info "layers" ~doc:"List the layer library (Figure 1)")
    Term.(const run $ const ())

let table4_cmd =
  let run () =
    List.iter
      (fun p ->
         Format.printf "P%-3d %s@." (Horus_props.Property.number p)
           (Horus_props.Property.description p))
      Horus_props.Property.all
  in
  Cmd.v (Cmd.info "table4" ~doc:"List the sixteen protocol properties (Table 4)")
    Term.(const run $ const ())

let table3_cmd =
  let run () =
    let module P = Horus_props.Property in
    Format.printf "%-14s %-28s %-18s inherits@." "layer" "requires" "provides";
    Format.printf "%s@." (String.make 110 '-');
    List.iter
      (fun (s : Horus_props.Layer_spec.t) ->
         Format.printf "%-14s %-28s %-18s %s@." s.Horus_props.Layer_spec.name
           (P.Set.to_string s.Horus_props.Layer_spec.requires)
           (P.Set.to_string s.Horus_props.Layer_spec.provides)
           (P.Set.to_string s.Horus_props.Layer_spec.inherits))
      Horus_props.Layer_spec.table3
  in
  Cmd.v (Cmd.info "table3" ~doc:"Per-layer property table (Table 3)")
    Term.(const run $ const ())

let net_arg =
  let doc = "Comma-separated property numbers the network provides (default: 1)." in
  Arg.(value & opt string "1" & info [ "net" ] ~doc)

let parse_numbers s =
  String.split_on_char ',' s
  |> List.filter (fun x -> String.trim x <> "")
  |> List.map (fun x ->
      let x = String.trim x in
      let x = if String.length x > 1 && (x.[0] = 'P' || x.[0] = 'p') then String.sub x 1 (String.length x - 1) else x in
      int_of_string x)

let check_cmd =
  let spec_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SPEC" ~doc:"Stack spec, e.g. TOTAL:MBRSHIP:FRAG:NAK:COM")
  in
  let run net spec_string =
    init ();
    let module P = Horus_props.Property in
    let net = P.Set.of_numbers (parse_numbers net) in
    let names = Horus_hcpi.Spec.names (Horus_hcpi.Spec.parse spec_string) in
    (match Horus_props.Check.derive_names ~net names with
     | Ok props ->
       Format.printf "well-formed over net %a@." P.Set.pp net;
       Format.printf "provides: %a@." P.Set.pp props;
       (match Horus_props.Check.trace ~net (List.map Horus_props.Layer_spec.find_exn names) with
        | Ok steps ->
          let bottom_up = Array.of_list (List.rev names) in
          List.iteri
            (fun i s ->
               let label = if i = 0 then "(net)" else "above " ^ bottom_up.(i - 1) in
               Format.printf "  %-16s %a@." label P.Set.pp s)
            steps
        | Error _ -> ())
     | Error e -> Format.printf "ill-formed: %a@." Horus_props.Check.pp_error e)
  in
  Cmd.v (Cmd.info "check" ~doc:"Check well-formedness and derive properties of a stack")
    Term.(const run $ net_arg $ spec_arg)

let synth_cmd =
  let req_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PROPS" ~doc:"Required properties, e.g. 6,9,15 or P6,P9")
  in
  let run net req =
    init ();
    let module P = Horus_props.Property in
    let net = P.Set.of_numbers (parse_numbers net) in
    let required = P.Set.of_numbers (parse_numbers req) in
    match Horus_props.Search.search ~net ~required () with
    | Some r ->
      Format.printf "%s@." (Horus_props.Search.spec_string r);
      Format.printf "cost %d, provides %a@." r.Horus_props.Search.cost P.Set.pp
        r.Horus_props.Search.provides
    | None -> Format.printf "no stack in the catalogue can provide %a@." P.Set.pp required
  in
  Cmd.v (Cmd.info "synth" ~doc:"Synthesize the minimal stack for a requirement set")
    Term.(const run $ net_arg $ req_arg)

let order_cmd =
  let l1_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"UPPER" ~doc:"Upper layer.")
  in
  let l2_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"LOWER" ~doc:"Lower layer.")
  in
  let run net l1 l2 =
    init ();
    let net = Horus_props.Property.Set.of_numbers (parse_numbers net) in
    let upper = Horus_props.Layer_spec.find_exn l1 in
    let lower = Horus_props.Layer_spec.find_exn l2 in
    Format.printf "%a@." Horus_props.Check.pp_order_verdict
      (Horus_props.Check.order_matters ~net ~upper ~lower)
  in
  Cmd.v
    (Cmd.info "order"
       ~doc:"Does the stacking order of two layers matter? (Section 8)")
    Term.(const run $ net_arg $ l1_arg $ l2_arg)

(* A quick live scenario from the command line: form a group over a
   given stack, push some traffic, crash a member, and report what
   every member saw. *)
let simulate_cmd =
  let spec_arg =
    Arg.(value & opt string "TOTAL:MBRSHIP:FRAG:NAK:COM"
         & info [ "stack" ] ~doc:"Stack spec to run.")
  in
  let n_arg = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Group size.") in
  let crash_arg =
    Arg.(value & flag & info [ "crash" ] ~doc:"Crash the youngest member mid-run.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"World seed.") in
  let run spec n crash seed =
    let open Horus in
    let world = World.create ~seed () in
    let g = World.fresh_group_addr world in
    let founder = Group.join (Endpoint.create world ~spec) g in
    World.run_for world ~duration:0.3;
    let rest =
      List.init (n - 1) (fun _ ->
          let m = Group.join ~contact:(Group.addr founder) (Endpoint.create world ~spec) g in
          World.run_for world ~duration:0.4;
          m)
    in
    let members = founder :: rest in
    World.run_for world ~duration:2.0;
    List.iteri
      (fun i gr ->
         for k = 0 to 2 do
           World.after world ~delay:(0.01 *. float_of_int k) (fun () ->
               Group.cast gr (Printf.sprintf "m%d-%d" i k))
         done)
      members;
    if crash then
      World.after world ~delay:0.015 (fun () ->
          Endpoint.crash (Group.endpoint (List.nth members (n - 1))));
    World.run_for world ~duration:5.0;
    List.iteri
      (fun i gr ->
         let view =
           match Group.view gr with
           | Some v -> Format.asprintf "%a" View.pp v
           | None -> "(none)"
         in
         Format.printf "member %d: view %s@." i view;
         Format.printf "  delivered (%d): %s@."
           (List.length (Group.casts gr))
           (String.concat " " (Group.casts gr)))
      members
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Run a live group scenario and print what every member saw")
    Term.(const run $ spec_arg $ n_arg $ crash_arg $ seed_arg)

(* Run a group scenario and dump the world's metrics registry — the
   per-layer HCPI crossing counters, the engine's dispatch-delay
   histogram, and the wire stats — as a table or as the same JSON shape
   bench/main.exe --json embeds. *)
let metrics_cmd =
  let spec_arg =
    Arg.(value & opt string "TOTAL:MBRSHIP:FRAG:NAK:COM"
         & info [ "stack" ] ~doc:"Stack spec to run.")
  in
  let n_arg = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Group size.") in
  let casts_arg =
    Arg.(value & opt int 10 & info [ "casts" ] ~doc:"Casts from member 0.")
  in
  let crash_arg =
    Arg.(value & flag & info [ "crash" ] ~doc:"Crash the youngest member mid-run.")
  in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"World seed.") in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the registry as JSON instead of a table.")
  in
  let run spec n casts crash seed json =
    let open Horus in
    let world = World.create ~seed () in
    let members = spawn_group world ~spec ~n in
    let sender = List.hd members in
    for k = 0 to casts - 1 do
      World.after world ~delay:(0.01 *. float_of_int k) (fun () ->
          Group.cast sender (Printf.sprintf "m%d" k))
    done;
    if crash then
      World.after world ~delay:(0.01 *. float_of_int casts) (fun () ->
          Endpoint.crash (Group.endpoint (List.nth members (n - 1))));
    World.run_for world ~duration:3.0;
    if json then print_string (Json.to_string ~indent:true (World.metrics_json world))
    else begin
      ignore (World.metrics_json world);  (* export the wire stats *)
      Format.printf "%a" Metrics.pp (World.metrics world)
    end
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run a group scenario and dump the world metrics registry (deterministic in the seed)")
    Term.(const run $ spec_arg $ n_arg $ casts_arg $ crash_arg $ seed_arg $ json_arg)

(* Replay a repro file (see lib/check): run the recorded scenario
   twice, check the two runs are byte-identical, report violations, and
   compare the outcome with the one the file recorded. Exit 0 iff the
   replay is deterministic and matches the recorded expectation. *)
let replay_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE" ~doc:"Repro file (horus-repro/1 JSON).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Dump the full run result as JSON.")
  in
  let run file json =
    let module C = Horus_check in
    match C.Repro.load file with
    | Error e ->
      Format.eprintf "replay: cannot load %s: %s@." file e;
      exit 2
    | Ok sc ->
      let r1 = C.Runner.run sc in
      let r2 = C.Runner.run sc in
      let s1 = C.Runner.to_string r1 and s2 = C.Runner.to_string r2 in
      if json then print_string s1
      else begin
        Format.printf "scenario: %a@." C.Scenario.pp sc;
        Format.printf "choice points: %d@." r1.C.Runner.r_choice_points;
        (match r1.C.Runner.r_violations with
         | [] -> Format.printf "no invariant violations@."
         | vs ->
           List.iter (fun v -> Format.printf "VIOLATION %a@." C.Invariant.pp_violation v) vs)
      end;
      if s1 <> s2 then begin
        Format.eprintf "replay: NONDETERMINISTIC — two runs of %s differ@." file;
        exit 1
      end;
      let failed = C.Runner.failed r1 in
      if failed <> sc.C.Scenario.expect_violation then begin
        Format.eprintf "replay: outcome mismatch — file expects %s, run %s@."
          (if sc.C.Scenario.expect_violation then "a violation" else "no violation")
          (if failed then "violated the invariants" else "was clean");
        exit 1
      end
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a repro file deterministically and check the recorded outcome")
    Term.(const run $ file_arg $ json_arg)

(* Systematic schedule exploration from the command line — the same
   engine the test suite uses, sized by flags so CI can run it at a
   small depth. Exit 1 when a violation is found. *)
let explore_cmd =
  let spec_arg =
    Arg.(value & opt string "MBRSHIP:FRAG:NAK:COM"
         & info [ "stack" ] ~doc:"Stack spec to explore.")
  in
  let n_arg = Arg.(value & opt int 3 & info [ "n" ] ~doc:"Group size.") in
  let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"World seed.") in
  let casts_arg =
    Arg.(value & opt int 2 & info [ "casts" ] ~doc:"Casts per casting member.")
  in
  let caster_arg =
    Arg.(value & opt (some int) None
         & info [ "caster" ] ~doc:"Restrict traffic to this member (default: everyone).")
  in
  let crash_arg =
    Arg.(value & opt (some int) None
         & info [ "crash" ] ~doc:"Member index to crash mid-traffic.")
  in
  let crash_at_arg =
    Arg.(value & opt float 0.05
         & info [ "crash-at" ] ~doc:"Crash instant, seconds after traffic start.")
  in
  let suspect_arg =
    Arg.(value & opt (some (pair int int)) None
         & info [ "suspect" ] ~docv:"BY,WHOM"
             ~doc:"Explicit suspicion injected just after the crash instant.")
  in
  let link_arg =
    Arg.(value & opt_all (t3 int int float) []
         & info [ "link" ] ~docv:"SRC,DST,LAT"
             ~doc:"Per-link latency override in seconds (repeatable).")
  in
  let depth_arg =
    Arg.(value & opt int 6 & info [ "depth" ] ~doc:"DFS branching depth bound.")
  in
  let max_runs_arg =
    Arg.(value & opt int 200 & info [ "max-runs" ] ~doc:"Run budget.")
  in
  let width_arg =
    Arg.(value & opt int 3 & info [ "width" ] ~doc:"Max candidates per choice point.")
  in
  let from_arg =
    Arg.(value & opt float 0.0
         & info [ "from" ]
             ~doc:"Activate the chooser this many seconds after traffic start.")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~doc:"Directory to write a repro file into on failure.")
  in
  let run spec n seed casts caster crash crash_at suspect links depth max_runs width
      from save =
    let module C = Horus_check in
    let ops =
      List.concat
        (List.init n (fun i ->
             if caster <> None && caster <> Some i then []
             else
               List.init casts (fun k ->
                   { C.Scenario.op_member = i; op_at = 0.02 +. (0.04 *. float_of_int k); op_pad = 0 })))
    in
    let faults =
      (match crash with
       | None -> []
       | Some m -> [ { C.Scenario.f_at = crash_at; f_fault = C.Scenario.Crash m } ])
      @ (match suspect with
         | None -> []
         | Some (a, b) ->
           [ { C.Scenario.f_at = crash_at +. 0.0002; f_fault = C.Scenario.Suspect (a, b) } ])
    in
    let sc =
      C.Scenario.make ~name:(Printf.sprintf "explore-seed%d" seed) ~seed ~links ~ops
        ~faults ~run_for:8.0 ~spec ~n ()
    in
    let config =
      { C.Explore.default_config with depth; max_runs; width; from_time = from }
    in
    let out = C.Explore.explore ~config sc in
    Format.printf "runs %d, distinct outcomes %d%s@." out.C.Explore.stats.C.Explore.runs
      out.C.Explore.stats.C.Explore.distinct
      (if out.C.Explore.stats.C.Explore.truncated then " (truncated by budget)" else "");
    match out.C.Explore.found with
    | None -> Format.printf "no invariant violation found@."
    | Some (bad, r) ->
      Format.printf "VIOLATION found: %a@." C.Scenario.pp bad;
      List.iter
        (fun v -> Format.printf "  %a@." C.Invariant.pp_violation v)
        r.C.Runner.r_violations;
      (match C.Repro.save ?dir:save { bad with C.Scenario.expect_violation = true } with
       | Some path -> Format.printf "repro written to %s@." path
       | None -> ());
      exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Systematically explore dispatch schedules of a live stack (exit 1 on violation)")
    Term.(const run $ spec_arg $ n_arg $ seed_arg $ casts_arg $ caster_arg $ crash_arg
          $ crash_at_arg $ suspect_arg $ link_arg $ depth_arg $ max_runs_arg $ width_arg
          $ from_arg $ save_arg)

(* The flags every campaign subcommand (soak, churn, conformance)
   shares; the double-run gate itself is Horus_check.Campaign.gate. *)
let report_arg =
  Arg.(value & opt (some string) None
       & info [ "report" ] ~docv:"FILE" ~doc:"Write the full JSON report here.")

let double_run_arg =
  Arg.(value & flag
       & info [ "double-run" ]
           ~doc:"Run twice and require every cell's fingerprints to agree (the \
                 determinism gate).")

let shards_arg =
  Arg.(value & opt int 1
       & info [ "shards" ]
           ~doc:"Run this many independent cells in parallel, one OCaml domain \
                 each (seed offset per cell); the combined fingerprint is \
                 deterministic in (config, shards). 1 = the plain run.")

(* An invariant-checked soak: a long chaos-transport run (lib/check's
   Soak) sized by flags, with the chaos profile given as a JSON file
   (none: Chaos.default, no faults). Prints a summary, optionally
   writes the full JSON report, saves a repro on violation, and exits
   nonzero if any invariant broke — the CI chaos gate. *)
let soak_cmd =
  let spec_arg =
    Arg.(value & opt string "TOTAL:MBRSHIP:FRAG:NAK:COM"
         & info [ "stack" ] ~doc:"Stack spec to soak.")
  in
  let n_arg = Arg.(value & opt int 4 & info [ "n" ] ~doc:"Group size.") in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"World + chaos seed.")
  in
  let casts_arg =
    Arg.(value & opt int 1000
         & info [ "casts" ] ~doc:"Cast budget, round-robin across members.")
  in
  let period_arg =
    Arg.(value & opt float 0.005
         & info [ "cast-period" ] ~doc:"Seconds between consecutive casts.")
  in
  let duration_arg =
    Arg.(value & opt float 0.0
         & info [ "duration" ]
             ~doc:"Cap on the traffic phase in virtual seconds (0 = budget only).")
  in
  let profile_arg =
    Arg.(value & opt (some file) None
         & info [ "profile" ] ~docv:"FILE"
             ~doc:"Chaos profile JSON file; fields it omits keep their defaults \
                   (default: no chaos).")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~doc:"Directory to write a repro file into on violation.")
  in
  let fastpath_arg =
    Arg.(value & flag
         & info [ "fastpath" ]
             ~doc:"Enable the fused steady-state fast path (outcome-equivalent; \
                   the soak invariants hold either way).")
  in
  let churn_arg =
    Arg.(value & opt int 0
         & info [ "churn" ]
             ~doc:"Membership churn: this many members leave and the same number \
                   of distinct members join late, interleaved across the traffic \
                   span (requires 2*churn < n). Casts come from the stable core.")
  in
  let run spec n seed casts period duration profile report save fastpath churn shards
      double =
    let module C = Horus_check in
    let module Ch = Horus.Transport.Chaos in
    let profile =
      match profile with
      | Some file ->
        (match Ch.profile_of_string (In_channel.with_open_bin file In_channel.input_all) with
         | Ok p -> p
         | Error e ->
           Format.eprintf "soak: cannot load profile %s: %s@." file e;
           exit 2)
      | None -> Ch.default
    in
    let config =
      { C.Soak.default_config with
        C.Soak.c_name = Printf.sprintf "soak-seed%d" seed;
        c_spec = spec;
        c_n = n;
        c_seed = seed;
        c_profile = profile;
        c_casts = casts;
        c_cast_period = period;
        c_duration = duration;
        c_churn = churn }
    in
    let summary (s : C.Soak.report C.Campaign.run) =
      Format.printf
        "soak %s: %d shard(s), %d casts/cell, %d members (%d churned), %.2f wall seconds@."
        spec shards s.cells.(0).C.Soak.rp_casts n (2 * churn) s.wall;
      Array.iteri
        (fun i r ->
           Format.printf
             "  shard %d: %d online checks, %.1f virtual seconds, outcome %016Lx, \
              metrics %016Lx@."
             i r.C.Soak.rp_checks r.C.Soak.rp_elapsed r.C.Soak.rp_outcome_fingerprint
             r.C.Soak.rp_metrics_fingerprint;
           List.iter
             (fun (at, v) ->
                Format.printf "  ONLINE VIOLATION at %.3f: %a@." at
                  C.Invariant.pp_violation v)
             r.C.Soak.rp_online;
           List.iter
             (fun v -> Format.printf "  VIOLATION %a@." C.Invariant.pp_violation v)
             r.C.Soak.rp_final;
           match r.C.Soak.rp_repro with
           | Some path -> Format.printf "  repro written to %s@." path
           | None -> ())
        s.cells;
      Format.printf "combined fingerprint %016Lx@." s.combined
    in
    exit
      (C.Campaign.gate C.Soak.campaign ?report ~double_run:double ~summary
         ~passed:"no invariant violations" ~shards
         (C.Soak.cell ?repro_dir:save ~fastpath ~shards config))
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Run an invariant-checked chaos soak over the loopback transport \
             (exit 1 on violation)")
    Term.(const run $ spec_arg $ n_arg $ seed_arg $ casts_arg $ period_arg
          $ duration_arg $ profile_arg $ report_arg $ save_arg $ fastpath_arg
          $ churn_arg $ shards_arg $ double_run_arg)

(* The hierarchical churn soak: HIER sub-groups over multiplexed
   loopback sockets with a live directory service, mass join/leave
   waves, and convergence/nak/directory bounds — the M4 acceptance
   experiment, in virtual time. *)
let churn_cmd =
  let module C = Horus_check in
  let seed_arg =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~doc:"World seed; the run is a pure function of the \
                                 config and this.")
  in
  let spec_arg =
    Arg.(value & opt (some string) None
         & info [ "stack" ] ~doc:"Sub-group stack below HIER, top first.")
  in
  let ci_arg =
    Arg.(value & flag
         & info [ "ci" ] ~doc:"Start from the bounded CI shape (256 endpoints x \
                               8 sub-groups, 2 waves) instead of the full M4 one.")
  in
  let ungraceful_arg =
    Arg.(value & flag
         & info [ "ungraceful" ]
             ~doc:"Crash-fault campaign (M5): waves kill instead of leave — the \
                   youngest quarter plus coordinators crash without a goodbye, \
                   the directory primary is killed mid-wave, and re-bridging is \
                   held to a bound.")
  in
  let run seed spec ci ungraceful double shards report =
    let base =
      match (ungraceful, ci) with
      | false, false -> C.Churn.default_config
      | false, true -> C.Churn.ci_config
      | true, false -> C.Churn.m5_config
      | true, true -> C.Churn.m5_ci_config
    in
    let config =
      { base with
        C.Churn.h_seed = Option.value seed ~default:base.C.Churn.h_seed;
        h_spec = Option.value spec ~default:base.C.Churn.h_spec }
    in
    let summary (s : C.Churn.report C.Campaign.run) =
      if shards > 1 then
        Format.printf "churn: %d parallel cells, %.2f wall seconds@." shards s.wall;
      let r = s.cells.(0) in
      Format.printf
        "churn: %d endpoints in %d sub-groups over %d sockets, %d waves, %.1f \
         virtual seconds@."
        r.C.Churn.r_endpoints r.C.Churn.r_subgroups r.C.Churn.r_sockets
        config.C.Churn.h_waves r.C.Churn.r_elapsed;
      List.iter
        (fun w ->
           Format.printf "  wave %d %s: %d members, converged %s@."
             w.C.Churn.w_index w.C.Churn.w_kind w.C.Churn.w_members
             (match w.C.Churn.w_converge with
              | Some t -> Printf.sprintf "in %.2fs" t
              | None -> "NEVER (bound exceeded)"))
        r.C.Churn.r_waves;
      if r.C.Churn.r_killed > 0 then begin
        Format.printf
          "  killed %d endpoints (%d coordinators); re-bridge bound %.2fs@."
          r.C.Churn.r_killed r.C.Churn.r_killed_coordinators
          r.C.Churn.r_rebridge_bound;
        List.iter
          (fun (j, t) -> Format.printf "    sub-group %d re-bridged in %.3fs@." j t)
          r.C.Churn.r_rebridge
      end;
      if r.C.Churn.r_dir_replicas > 0 then
        Format.printf
          "  directory: %d replicas, %d promotions, epoch %d, %d client \
           failovers, %d redirects, %d evictions@."
          r.C.Churn.r_dir_replicas r.C.Churn.r_dir_promotions
          r.C.Churn.r_dir_epoch r.C.Churn.r_dir_failovers
          r.C.Churn.r_dir_redirects r.C.Churn.r_dir_evictions;
      Format.printf
        "  nak.retransmits %d, unknown_gid %d, dir match %b, fingerprint %016Lx@."
        r.C.Churn.r_nak_retransmits r.C.Churn.r_unknown_gid r.C.Churn.r_dir_match
        r.C.Churn.r_fingerprint;
      List.iter (fun v -> Format.printf "VIOLATION: %s@." v) r.C.Churn.r_violations;
      (* The detailed block above covers cell 0; with more shards, one
         summary line (and any violations) per further cell. *)
      Array.iteri
        (fun i c ->
           if i > 0 then begin
             Format.printf
               "  cell %d: %.1f virtual seconds, nak.retransmits %d, fingerprint \
                %016Lx@."
               i c.C.Churn.r_elapsed c.C.Churn.r_nak_retransmits
               c.C.Churn.r_fingerprint;
             List.iter
               (fun v -> Format.printf "  cell %d VIOLATION: %s@." i v)
               c.C.Churn.r_violations
           end)
        s.cells;
      if shards > 1 then Format.printf "combined fingerprint %016Lx@." s.combined
    in
    exit
      (C.Campaign.gate C.Churn.campaign ?report ~double_run:double ~summary
         ~passed:"churn soak passed" ~shards (C.Churn.cell ~shards config))
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:"Run the hierarchical churn soak: HIER sub-groups over multiplexed \
             sockets with a directory service (exit 1 on violation)")
    Term.(const run $ seed_arg $ spec_arg $ ci_arg $ ungraceful_arg $ double_run_arg
          $ shards_arg $ report_arg)

(* The property-algebra conformance sweep: synthesize well-formed
   stacks, derive each one's contract, run them under a chaos matrix,
   and check exactly the invariant slice the algebra promises. Exit 1
   when any stack falsifies its contract (each failure ships a shrunk
   repro and a layer-bug vs encoding-bug classification). *)
let conformance_cmd =
  let stacks_arg =
    Arg.(value & opt int 100
         & info [ "stacks" ] ~doc:"Distinct synthesized stacks to sweep.")
  in
  let seed_arg =
    Arg.(value & opt int 11
         & info [ "seed" ] ~doc:"Generator + scenario seed (the sweep is a pure \
                                 function of it).")
  in
  let depth_arg =
    Arg.(value & opt int 5 & info [ "max-depth" ] ~doc:"Max layers per stack.")
  in
  let profiles_arg =
    Arg.(value & opt string "clean,drop,reorder"
         & info [ "profiles" ]
             ~doc:"Comma-separated chaos profiles (clean, drop, reorder).")
  in
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~doc:"Directory for shrunk repro files on violation.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No per-run progress lines.")
  in
  let run stacks seed depth profiles report save quiet =
    let module C = Horus_check in
    let module P = Horus_props.Property in
    let cf_profiles =
      List.map
        (fun name ->
           match C.Conformance.profile_named name with
           | Some p -> (name, p)
           | None ->
             Format.eprintf "conformance: unknown profile %s (have: %s)@." name
               (String.concat ", " (List.map fst C.Conformance.profiles));
             exit 2)
        (String.split_on_char ',' profiles)
    in
    let cf =
      { C.Conformance.cf_seed = seed;
        cf_stacks = stacks;
        cf_max_depth = depth;
        cf_profiles;
        cf_save = save }
    in
    let progress =
      if quiet then None else Some (fun line -> Format.printf "%s@." line)
    in
    let summary (s : C.Conformance.report C.Campaign.run) =
      let r = s.cells.(0) in
      Format.printf "conformance: %d stacks x %d profiles = %d runs, %d failures@."
        r.C.Conformance.rp_stacks (List.length cf_profiles) r.C.Conformance.rp_runs
        r.C.Conformance.rp_failures;
      Format.printf "sweep fingerprint %016Lx@." r.C.Conformance.rp_fingerprint;
      List.iter
        (fun v ->
           if not (C.Conformance.verdict_ok v) then begin
             Format.printf "FALSIFIED %s under %s (contract %s)@."
               v.C.Conformance.vd_spec v.C.Conformance.vd_profile
               (P.Set.to_string v.C.Conformance.vd_props);
             List.iter
               (fun (p, vs) ->
                  Format.printf "  %a: %d violation(s)@." P.pp p (List.length vs);
                  List.iter
                    (fun viol -> Format.printf "    %a@." C.Invariant.pp_violation viol)
                    vs)
               v.C.Conformance.vd_violations;
             List.iter
               (fun (_, b) ->
                  Format.printf "  %s@." (Horus_props.Contract.classification b))
               v.C.Conformance.vd_blames;
             match v.C.Conformance.vd_repro with
             | Some path -> Format.printf "  repro written to %s@." path
             | None -> ()
           end)
        r.C.Conformance.rp_verdicts
    in
    exit
      (C.Campaign.gate C.Conformance.campaign ?report ~summary
         ~passed:"all contracts held" ~shards:1
         (fun _ -> C.Conformance.sweep ?progress cf))
  in
  Cmd.v
    (Cmd.info "conformance"
       ~doc:"Fuzz synthesized stacks against their algebra-derived contracts \
             (exit 1 when a contract is falsified)")
    Term.(const run $ stacks_arg $ seed_arg $ depth_arg $ profiles_arg $ report_arg
          $ save_arg $ quiet_arg)

(* Serve the rank directory over real UDP: the membership bootstrap
   for node/ping deployments that have no static peer book. *)
let dir_cmd =
  let bind_arg =
    Arg.(value & opt string "127.0.0.1:7400"
         & info [ "bind" ] ~doc:"Local HOST:PORT to serve on.")
  in
  let max_lease_arg =
    Arg.(value & opt float 30.0
         & info [ "max-lease" ] ~doc:"Ceiling on granted lease durations, seconds.")
  in
  let sweep_arg =
    Arg.(value & opt float 0.5
         & info [ "sweep-period" ] ~doc:"Lease-eviction sweep period, seconds.")
  in
  let duration_arg =
    Arg.(value & opt float 0.0
         & info [ "duration" ]
             ~doc:"Serve this many wall-clock seconds, print stats and exit \
                   (0 = serve until interrupted).")
  in
  let replicas_arg =
    Arg.(value & opt (some string) None
         & info [ "replicas" ] ~docv:"ADDRS"
             ~doc:"Full ordered replica ring as HOST:PORT,HOST:PORT,... \
                   (index 0 the initial primary, the rest the promotion \
                   order). This process serves the slot named by \
                   --replica-index; the others are its peers.")
  in
  let replica_index_arg =
    Arg.(value & opt int 0
         & info [ "replica-index" ] ~docv:"N"
             ~doc:"This process's slot in --replicas (default 0, the primary).")
  in
  let promote_after_arg =
    Arg.(value & opt float 1.5
         & info [ "promote-after" ]
             ~doc:"Promotion stagger slot width, seconds: backup N promotes \
                   after N times this much primary silence.")
  in
  let run bind max_lease sweep_period duration replicas replica_index promote_after =
    let open Horus in
    let module D = Horus_dir in
    let replicas =
      match replicas with
      | None -> []
      | Some s -> String.split_on_char ',' s |> List.map String.trim
                  |> List.filter (fun a -> a <> "")
    in
    (if replicas <> [] && (replica_index < 0 || replica_index >= List.length replicas)
     then begin
       Format.eprintf "dir: --replica-index %d out of range for %d replicas@."
         replica_index (List.length replicas);
       exit 2
     end);
    let engine = Horus_sim.Engine.create () in
    let backend = Transport.Udp.create ~bind () in
    let dir =
      D.Dir_service.create ~sweep_period ~max_lease ~replicas ~replica_index
        ~promote_after ~engine backend
    in
    let driver = Transport.Driver.create engine [ backend ] in
    (match replicas with
     | [] -> Format.printf "directory serving on %s@." (D.Dir_service.addr dir)
     | _ ->
       Format.printf "directory %s on %s (replica %d/%d, epoch %d)@."
         (D.Dir_service.role_string dir) (D.Dir_service.addr dir)
         replica_index (List.length replicas) (D.Dir_service.epoch dir));
    if duration > 0.0 then Transport.Driver.run_for driver ~duration
    else
      while true do
        Transport.Driver.run_for driver ~duration:3600.0
      done;
    let st = D.Dir_service.stats dir in
    Format.printf
      "requests %d, replies %d, notifies %d, evictions %d, errors %d, bad %d@."
      st.D.Dir_service.s_requests st.D.Dir_service.s_replies
      st.D.Dir_service.s_notifies st.D.Dir_service.s_evictions
      st.D.Dir_service.s_errors st.D.Dir_service.s_bad;
    if replicas <> [] then
      Format.printf
        "role %s, epoch %d, deltas out %d in %d, promotions %d, redirects %d, \
         syncs %d@."
        (D.Dir_service.role_string dir) (D.Dir_service.epoch dir)
        st.D.Dir_service.s_deltas_out st.D.Dir_service.s_deltas_in
        st.D.Dir_service.s_promotions st.D.Dir_service.s_redirects
        st.D.Dir_service.s_syncs;
    List.iter
      (fun g ->
         Format.printf "group %d: version %d, %d bindings@." g
           (D.Dir_service.version dir ~group:g)
           (List.length (D.Dir_service.entries dir ~group:g)))
      (D.Dir_service.groups dir);
    D.Dir_service.stop dir;
    backend.Transport.Backend.close ()
  in
  Cmd.v
    (Cmd.info "dir"
       ~doc:"Serve the rank directory over UDP (membership bootstrap for node and \
             ping), optionally as one slot of a primary/backup replica ring")
    Term.(const run $ bind_arg $ max_lease_arg $ sweep_arg $ duration_arg
          $ replicas_arg $ replica_index_arg $ promote_after_arg)

(* The per-member body of a node run, shared by the single-rank path
   and the sharded one: join the group, stream casts, wait for
   completion, check the single-process invariants, and produce the
   JSON report scripts/udp_smoke.sh cross-checks. *)
let node_member ~world ~driver ~link ~backend ~peers ~source ~g ~rank ~spec ~casts
    ~interval ~timeout ~n =
  let open Horus in
  let module I = Horus_check.Invariant in
  let module J = Json in
  let ep = Transport_link.endpoint link ~backend ~peers ~rank ~spec in
  let contact =
    match Transport.Peers.ranks peers with
    | lowest :: _ when lowest <> rank -> Some (Addr.endpoint lowest)
    | _ -> None
  in
  let gr = Group.join ?contact ~record:false ep g in
  let recorder = Horus_check.Runner.attach gr in
  let full_view () =
    match Group.view gr with Some v -> View.size v = n | None -> false
  in
  let formed = Transport.Driver.run_until ~timeout:(timeout /. 2.0) driver full_view in
  if formed then
    for k = 0 to casts - 1 do
      World.after world ~delay:(interval *. float_of_int (k + 1)) (fun () ->
          Group.cast gr (I.payload ~tag:'o' ~origin:rank ~k ()))
    done;
  let expect = n * casts in
  let complete =
    formed
    && Transport.Driver.run_until ~timeout driver (fun () ->
        Horus_check.Runner.delivered recorder >= expect)
  in
  (* Grace period: let peers finish receiving our tail. *)
  Transport.Driver.run_for driver ~duration:0.5;
  let obs = Horus_check.Runner.observation ~member:rank recorder gr in
  (* Single-process verdicts; cross-process agreement is the smoke
     script's job (it has both reports). *)
  let violations =
    I.per_origin_fifo ~tag:'o' [ obs ]
    @ I.delivery_in_view ~tag:'o' [ obs ]
    @ (if complete then I.self_delivery ~tag:'o' ~sent:(fun _ -> casts) [ obs ] else [])
  in
  let st = backend.Transport.Backend.stats in
  let out =
    J.Obj
      [ ("rank", J.Int rank);
        ("n", J.Int n);
        ("local_addr", J.String backend.Transport.Backend.local_addr);
        ("membership_source", J.String source);
        ("formed", J.Bool formed);
        ("complete", J.Bool complete);
        ("delivered", J.Int (Horus_check.Runner.delivered recorder));
        ("expected", J.Int expect);
        ( "final_view",
          match obs.I.o_final with
          | Some (ltime, members) ->
            J.Obj
              [ ("ltime", J.Int ltime);
                ("members", J.List (List.map (fun e -> J.Int e) members)) ]
          | None -> J.Null );
        ("casts", J.List (List.map (fun (p, _) -> J.String p) obs.I.o_casts));
        ("violations", I.to_json violations);
        ( "transport",
          J.Obj
            [ ("sent", J.Int st.Transport.Backend.sent);
              ("delivered", J.Int st.Transport.Backend.delivered);
              ("bad_frame", J.Int st.Transport.Backend.bad_frame);
              ("dropped", J.Int st.Transport.Backend.dropped);
              ("send_errors", J.Int st.Transport.Backend.send_errors);
              ("bytes_sent", J.Int st.Transport.Backend.bytes_sent);
              ("bytes_received", J.Int st.Transport.Backend.bytes_received) ] ) ]
  in
  (out, formed && complete && violations = [])

(* One member of a real multi-OS-process deployment over UDP: bind the
   rank's address from the shared peer book, join the group (rank 0
   founds it, the rest join via rank 0 as contact — MBRSHIP's merge
   retries absorb staggered process startup), cast a paced stream, and
   pump everything with the wall-clock driver until every member's
   casts arrived or the budget runs out. Emits a JSON report (final
   view, delivery sequence, local invariant verdicts, transport stats)
   that scripts/udp_smoke.sh cross-checks across processes. *)
let node_cmd =
  let rank_arg =
    Arg.(required & opt (some int) None
         & info [ "rank" ] ~doc:"This process's rank in the peer book.")
  in
  let peers_arg =
    Arg.(value & opt (some string) None
         & info [ "peers" ] ~docv:"BOOK"
             ~doc:"Static peer book shared by all processes, e.g. \
                   0=127.0.0.1:7001,1=127.0.0.1:7002. Optional when --dir is \
                   given (and the fallback if the directory cannot assemble \
                   the group).")
  in
  let dir_arg =
    Arg.(value & opt (some string) None
         & info [ "dir" ] ~docv:"ADDR"
             ~doc:"Directory service HOST:PORT: register this member and \
                   resolve the peer book dynamically instead of --peers.")
  in
  let bind_addr_arg =
    Arg.(value & opt (some string) None
         & info [ "bind" ]
             ~doc:"Local HOST:PORT when using --dir without a static book \
                   (default 127.0.0.1:0, an ephemeral port).")
  in
  let n_arg =
    Arg.(value & opt (some int) None
         & info [ "n" ]
             ~doc:"Expected membership size when using --dir (defaults to the \
                   static book's size when one is given).")
  in
  let spec_arg =
    Arg.(value & opt string "TOTAL:MBRSHIP:FRAG:NAK:COM"
         & info [ "stack" ] ~doc:"Stack spec.")
  in
  let casts_arg =
    Arg.(value & opt int 1000 & info [ "casts" ] ~doc:"Casts issued by this member.")
  in
  let interval_arg =
    Arg.(value & opt float 0.002 & info [ "interval" ] ~doc:"Seconds between casts.")
  in
  let timeout_arg =
    Arg.(value & opt float 60.0 & info [ "timeout" ] ~doc:"Wall-clock budget in seconds.")
  in
  let shards_arg =
    Arg.(value & opt int 1
         & info [ "shards" ]
             ~doc:"Host this many engine shards, one OCaml domain each: this \
                   process serves ranks rank..rank+shards-1, each with its own \
                   engine, socket and driver; co-resident cross-rank traffic \
                   bypasses the kernel over lock-free mailboxes. Requires a \
                   static --peers book covering every hosted rank (1 = the \
                   plain single-rank node).")
  in
  let batch_arg =
    Arg.(value & opt int 0
         & info [ "batch" ]
             ~doc:"Datagrams per batched UDP syscall (recvmmsg/sendmmsg); \
                   0 = scalar syscalls.")
  in
  let run rank peers_s dir_addr bind_s n_opt spec casts interval timeout shards batch =
    let open Horus in
    let module J = Json in
    let module D = Horus_dir in
    let static =
      match peers_s with
      | None -> None
      | Some s ->
        (match Transport.Peers.parse s with
         | Ok p -> Some p
         | Error e ->
           Format.eprintf "node: %s@." e;
           exit 2)
    in
    if dir_addr = None && static = None then begin
      Format.eprintf "node: need --peers, --dir, or both@.";
      exit 2
    end;
    if shards < 1 then begin
      Format.eprintf "node: --shards must be >= 1@.";
      exit 2
    end;
    if shards > 1 then begin
      (* Sharded node: this process hosts ranks rank..rank+shards-1,
         one engine shard (domain, socket, driver) each. Co-resident
         cross-rank sends bypass the kernel through the Shard fabric's
         mailboxes; everything else goes over the wire as usual. *)
      let book =
        match static with
        | Some p -> p
        | None ->
          Format.eprintf "node: --shards needs a static --peers book@.";
          exit 2
      in
      if dir_addr <> None then begin
        Format.eprintf "node: --dir is not supported with --shards > 1@.";
        exit 2
      end;
      let n = match n_opt with Some n -> n | None -> Transport.Peers.size book in
      let binds =
        List.init shards (fun i ->
            let rk = rank + i in
            match Transport.Peers.find book ~rank:rk with
            | Some a -> a
            | None ->
              Format.eprintf "node: rank %d not in peer book@." rk;
              exit 2)
      in
      (* Sockets are bound on this domain so the address->shard map
         exists before any shard runs; each shard then owns its own
         exclusively. *)
      let backends =
        Array.of_list (List.map (fun bind -> Transport.Udp.create ~batch ~bind ()) binds)
      in
      let owner = Hashtbl.create 8 in
      Array.iteri
        (fun i (b : Transport.Backend.t) ->
           Hashtbl.replace owner b.Transport.Backend.local_addr i)
        backends;
      let lookup dest = Hashtbl.find_opt owner dest in
      (* Populate the global layer registry before the domains spawn. *)
      Horus_layers.Init.register_all ();
      let fabric = Transport.Shard.create shards in
      let results =
        Transport.Shard.run fabric (fun ctx ->
            let me = ctx.Transport.Shard.sx_id in
            let world = World.create () in
            let g = World.fresh_group_addr world in  (* gid 0 in every shard *)
            let link = Transport_link.create world in
            let backend = Transport.Shard.bypass fabric ~me ~lookup backends.(me) in
            let driver =
              (* Mailbox posts cannot wake a sleeping driver: tick fast
                 enough that cross-shard latency stays bounded. *)
              Transport.Driver.create ~max_tick:Transport.Defaults.shard_tick ~shards
                (World.engine world) [ backend ]
            in
            node_member ~world ~driver ~link ~backend ~peers:book ~source:"static"
              ~g ~rank:(rank + me) ~spec ~casts ~interval ~timeout ~n)
      in
      Array.iter (fun (b : Transport.Backend.t) -> b.Transport.Backend.close ()) backends;
      let shard_obs =
        let m = Horus_obs.Metrics.create () in
        Transport.Shard.export_metrics fabric m;
        Horus_obs.Metrics.to_json m
      in
      let out =
        J.Obj
          [ ("shards", J.Int shards);
            ("shard", shard_obs);
            ("reports", J.List (Array.to_list (Array.map fst results))) ]
      in
      print_string (J.to_string ~indent:true out);
      if Array.for_all snd results then exit 0 else exit 1
    end;
    let n =
      match (n_opt, static) with
      | Some n, _ -> n
      | None, Some p -> Transport.Peers.size p
      | None, None ->
        Format.eprintf "node: --dir without a static book needs --n@.";
        exit 2
    in
    let bind =
      match (static, bind_s) with
      | Some p, _ ->
        (match Transport.Peers.find p ~rank with
         | Some a -> a
         | None ->
           Format.eprintf "node: rank %d not in peer book@." rank;
           exit 2)
      | None, Some b -> b
      | None, None -> "127.0.0.1:0"
    in
    let world = World.create () in
    let backend = Transport.Udp.create ~batch ~bind () in
    let link = Transport_link.create world in
    let g = World.fresh_group_addr world in  (* gid 0 in every process *)
    (* Membership bootstrap: with --dir, register this member's socket
       under its rank and poll the listing until the expected
       population is present; the static book (when also given) is the
       fallback if the directory cannot assemble the group in time. *)
    let dir_ctx =
      match dir_addr with
      | None -> None
      | Some da ->
        let host =
          match String.rindex_opt bind ':' with
          | Some i -> String.sub bind 0 i
          | None -> "127.0.0.1"
        in
        let db = Transport.Udp.create ~bind:(host ^ ":0") () in
        let cl =
          D.Dir_client.create ~eid:rank ~engine:(World.engine world) (fun frame ->
              db.Transport.Backend.send ~dest:da frame)
        in
        db.Transport.Backend.set_rx (fun ~src frame ->
            D.Dir_client.rx_frame cl ~src frame);
        Some (db, cl)
    in
    let driver =
      Transport.Driver.create (World.engine world)
        (backend :: (match dir_ctx with Some (db, _) -> [ db ] | None -> []))
    in
    let resolved =
      match dir_ctx with
      | None -> None
      | Some (_, cl) ->
        let renewal =
          D.Dir_client.keepalive cl ~group:(Addr.group_id g) ~rank
            ~addr:backend.Transport.Backend.local_addr ~lease:10.0
        in
        let assembled = ref None in
        let rec poll () =
          D.Dir_client.list_group cl ~group:(Addr.group_id g) (fun r ->
              match r with
              | Ok (_, es) when List.length es >= n -> assembled := Some es
              | _ -> World.after world ~delay:0.25 (fun () -> poll ()))
        in
        poll ();
        ignore
          (Transport.Driver.run_until ~timeout:(timeout /. 4.0) driver (fun () ->
               !assembled <> None));
        (match !assembled with
         | Some es -> Some (D.Dir_client.peers_of es, renewal)
         | None ->
           D.Dir_client.release renewal;
           None)
    in
    let peers, source =
      match (resolved, static) with
      | Some (p, _), _ -> (p, "directory")
      | None, Some p ->
        if dir_addr <> None then
          Format.eprintf
            "node: directory did not assemble %d members in time; falling back \
             to the static book@."
            n;
        (p, "static")
      | None, None ->
        Format.eprintf "node: directory unavailable and no --peers fallback@.";
        exit 2
    in
    Format.eprintf "membership source: %s@." source;
    let out, passed =
      node_member ~world ~driver ~link ~backend ~peers ~source ~g ~rank ~spec ~casts
        ~interval ~timeout ~n
    in
    print_string (J.to_string ~indent:true out);
    (* Graceful directory departure: unregister and let the frame out. *)
    (match resolved with
     | Some (_, renewal) ->
       D.Dir_client.release renewal;
       Transport.Driver.run_for driver ~duration:0.2
     | None -> ());
    (match dir_ctx with Some (db, _) -> db.Transport.Backend.close () | None -> ());
    backend.Transport.Backend.close ();
    if passed then exit 0 else exit 1
  in
  Cmd.v
    (Cmd.info "node"
       ~doc:"Run one member of a real multi-process UDP deployment (JSON report on \
             stdout), optionally hosting several engine shards")
    Term.(const run $ rank_arg $ peers_arg $ dir_arg $ bind_addr_arg $ n_arg
          $ spec_arg $ casts_arg $ interval_arg $ timeout_arg $ shards_arg $ batch_arg)

(* Transport-level reachability: frames over UDP, no protocol stack.
   One side echoes ([--listen]); the other sends numbered pings and
   measures round-trip times. *)
let ping_cmd =
  let bind_arg =
    Arg.(value & opt string "127.0.0.1:0"
         & info [ "bind" ] ~doc:"Local HOST:PORT (port 0 picks an ephemeral port).")
  in
  let listen_arg =
    Arg.(value & flag & info [ "listen" ] ~doc:"Echo frames back instead of pinging.")
  in
  let to_arg =
    Arg.(value & opt (some string) None
         & info [ "to" ] ~docv:"ADDR" ~doc:"Peer to ping (HOST:PORT).")
  in
  let to_rank_arg =
    Arg.(value & opt (some int) None
         & info [ "to-rank" ]
             ~doc:"Peer to ping by rank, resolved via --dir (falling back to \
                   --peers).")
  in
  let dir_ping_arg =
    Arg.(value & opt (some string) None
         & info [ "dir" ] ~docv:"ADDR"
             ~doc:"Directory service HOST:PORT for --to-rank resolution.")
  in
  let peers_ping_arg =
    Arg.(value & opt (some string) None
         & info [ "peers" ] ~docv:"BOOK"
             ~doc:"Static peer book for --to-rank resolution, used when no \
                   directory answers.")
  in
  let group_ping_arg =
    Arg.(value & opt int 0
         & info [ "group" ] ~doc:"Group id for directory rank resolution.")
  in
  let count_arg = Arg.(value & opt int 5 & info [ "count" ] ~doc:"Pings to send.") in
  let timeout_arg =
    Arg.(value & opt float 30.0
         & info [ "timeout" ]
             ~doc:"Wall budget in seconds (listen duration; split across pings).")
  in
  let run bind listen to_ to_rank dir_addr peers_s gid count timeout =
    let open Horus in
    let backend = Transport.Udp.create ~bind () in
    let engine = Horus_sim.Engine.create () in
    let driver = Transport.Driver.create engine [ backend ] in
    let group = Addr.group 0xEC80 in  (* diagnostic frames, outside any real gid *)
    if listen then begin
      Format.printf "listening on %s@." backend.Transport.Backend.local_addr;
      backend.Transport.Backend.set_rx (fun ~src:from frame ->
          match Transport.Frame.decode frame with
          | Ok (_, payload) ->
            backend.Transport.Backend.send ~dest:from
              (Transport.Frame.encode ~src:(Addr.endpoint 1) ~group payload)
          | Error e ->
            Format.eprintf "bad frame from %s: %s@." from
              (Transport.Frame.error_to_string e));
      Transport.Driver.run_for driver ~duration:timeout
    end
    else begin
      (* Destination: an explicit address wins; otherwise resolve the
         rank via the directory, then via the static book — and say
         which one answered. *)
      let dest =
        match (to_, to_rank) with
        | Some a, _ -> a
        | None, None ->
          Format.eprintf "ping: --to or --to-rank required (or use --listen)@.";
          exit 2
        | None, Some r ->
          let module D = Horus_dir in
          let via_dir =
            match dir_addr with
            | None -> None
            | Some da ->
              let answer = ref None in
              let cl =
                D.Dir_client.create ~eid:0 ~engine (fun frame ->
                    backend.Transport.Backend.send ~dest:da frame)
              in
              backend.Transport.Backend.set_rx (fun ~src frame ->
                  D.Dir_client.rx_frame cl ~src frame);
              D.Dir_client.lookup cl ~group:gid ~rank:r (fun res ->
                  answer := Some res);
              ignore
                (Transport.Driver.run_until ~timeout:5.0 driver (fun () ->
                     !answer <> None));
              (match !answer with
               | Some (Ok a) -> Some a
               | Some (Error e) ->
                 Format.eprintf "ping: directory lookup failed: %s@." e;
                 None
               | None -> None)
          in
          (match (via_dir, peers_s) with
           | Some a, _ ->
             Format.printf "resolved rank %d via directory: %s@." r a;
             a
           | None, Some book ->
             (match Transport.Peers.parse book with
              | Ok p ->
                (match Transport.Peers.find p ~rank:r with
                 | Some a ->
                   Format.printf "resolved rank %d via static peer book: %s@." r a;
                   a
                 | None ->
                   Format.eprintf "ping: rank %d not in peer book@." r;
                   exit 2)
              | Error e ->
                Format.eprintf "ping: %s@." e;
                exit 2)
           | None, None ->
             Format.eprintf
               "ping: could not resolve rank %d (no directory answer, no \
                --peers fallback)@."
               r;
             exit 2)
      in
      let got = ref None in
      backend.Transport.Backend.set_rx (fun ~src:_ frame ->
          match Transport.Frame.decode frame with
          | Ok (_, payload) -> got := Some (Bytes.to_string payload)
          | Error _ -> ());
      let rtts = ref [] in
      let lost = ref 0 in
      for i = 1 to count do
        let payload = Printf.sprintf "ping-%d" i in
        got := None;
        let t0 = Unix.gettimeofday () in
        backend.Transport.Backend.send ~dest
          (Transport.Frame.encode ~src:(Addr.endpoint 0) ~group
             (Bytes.of_string payload));
        if
          Transport.Driver.run_until ~timeout:(timeout /. float_of_int count) driver
            (fun () -> !got = Some payload)
        then begin
          let rtt = (Unix.gettimeofday () -. t0) *. 1000.0 in
          rtts := rtt :: !rtts;
          Format.printf "reply from %s: seq=%d time=%.3f ms@." dest i rtt
        end
        else begin
          incr lost;
          Format.printf "timeout: seq=%d@." i
        end
      done;
      (match !rtts with
       | [] -> ()
       | l ->
         let mn = List.fold_left min infinity l
         and mx = List.fold_left max 0.0 l
         and avg = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
         Format.printf "%d/%d replies, rtt min/avg/max = %.3f/%.3f/%.3f ms@."
           (List.length l) count mn avg mx);
      backend.Transport.Backend.close ();
      if !lost > 0 then exit 1
    end
  in
  Cmd.v
    (Cmd.info "ping"
       ~doc:"Transport-level reachability check: echo or ping framed UDP datagrams")
    Term.(const run $ bind_arg $ listen_arg $ to_arg $ to_rank_arg $ dir_ping_arg
          $ peers_ping_arg $ group_ping_arg $ count_arg $ timeout_arg)

let () =
  let doc = "Horus protocol-composition framework: catalogue and property algebra" in
  let info = Cmd.info "horus_info" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ layers_cmd; table3_cmd; table4_cmd; check_cmd; synth_cmd; order_cmd;
            simulate_cmd; metrics_cmd; replay_cmd; explore_cmd; soak_cmd;
            churn_cmd; conformance_cmd; dir_cmd; node_cmd; ping_cmd ]))
