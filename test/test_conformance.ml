(* Catalogue conformance, in two sweeps.

   Table 3 sweep: for every layer in Table 3, ask the synthesis engine
   for a minimal stack that can host it (over a bare {P1} network),
   then *instantiate and run* that stack in a live 3-member world: the
   group must form, a multicast must reach everyone, and — when the
   stack provides virtual synchrony — survive a crash. This bridges
   the paper's two halves: the property algebra (Section 6) and the
   runtime (Sections 3-5). A row in Table 3 that could not actually
   run would fail here.

   Registry sweep: every layer registered in the HCPI registry (the
   full lib/layers catalogue, including the auxiliary layers outside
   Table 3) must (a) have a property spec in the catalogue and (b) run
   in its synthesized hosting stack, its cast reaching every member. *)

open Horus
module Layer_spec = Horus_props.Layer_spec
module Search = Horus_props.Search
module P = Horus_props.Property

let p1 = P.Set.of_numbers [ 1 ]

(* The stack that hosts [layer]: the layer itself on top of the
   cheapest provider of its requirements, with COM appended when the
   layer needs nothing from below (every stack bottoms out in the
   network adapter). *)
let hosting_stack (layer : Layer_spec.t) =
  match Search.search ~net:p1 ~required:layer.Layer_spec.requires () with
  | None -> None
  | Some r ->
    let names =
      layer.Layer_spec.name :: List.map (fun (s : Layer_spec.t) -> s.Layer_spec.name) r.Search.layers
    in
    let names = if List.mem "COM" names then names else names @ [ "COM" ] in
    Some (String.concat ":" names)

let has_membership spec_string =
  List.exists
    (fun n -> n = "MBRSHIP" || n = "BMS")
    (Spec.names (Spec.parse spec_string))

let provides_vs (layer : Layer_spec.t) spec_string =
  match
    Horus_props.Check.derive_names ~net:p1 (Spec.names (Spec.parse spec_string))
  with
  | Ok props -> P.Set.mem props P.P9_virtually_synchronous && ignore layer = ()
  | Error _ -> false

(* Run [spec] in a fresh 3-member world: form the group, cast once,
   optionally crash the youngest member, and return what there is to
   observe — per-member deliveries and final views. *)
let run_stack ?(crash = false) ~payload spec =
  let world = World.create ~seed:61 () in
  let g = World.fresh_group_addr world in
  let founder = Group.join (Endpoint.create world ~spec) g in
  World.run_for world ~duration:0.3;
  let rest =
    List.init 2 (fun _ ->
        let m = Group.join ~contact:(Group.addr founder) (Endpoint.create world ~spec) g in
        World.run_for world ~duration:0.5;
        m)
  in
  let members = founder :: rest in
  if not (has_membership spec) then begin
    (* No membership layer: install the destination sets by hand. *)
    let v =
      View.create ~group:g ~ltime:0
        ~members:(List.sort Addr.compare_endpoint (List.map Group.addr members))
    in
    List.iter (fun m -> Group.install_view m v) members
  end;
  World.run_for world ~duration:3.0;
  Group.cast founder payload;
  World.run_for world ~duration:3.0;
  if crash then begin
    Endpoint.crash (Group.endpoint (List.nth members 2));
    World.run_for world ~duration:4.0
  end;
  List.map
    (fun gr ->
       ( Group.casts gr,
         match Group.view gr with
         | Some v -> Some (View.ltime v, List.map Addr.endpoint_id (View.members v))
         | None -> None ))
    members

let run_conformance (layer : Layer_spec.t) () =
  match hosting_stack layer with
  | None -> Alcotest.failf "no hosting stack for %s" layer.Layer_spec.name
  | Some spec ->
    (* The synthesized stack must itself be well-formed. *)
    Alcotest.(check bool)
      (Printf.sprintf "%s is well-formed" spec)
      true
      (match Horus_props.Check.derive_names ~net:p1 (Spec.names (Spec.parse spec)) with
       | Ok _ -> true
       | Error _ -> false);
    let obs = run_stack ~crash:(provides_vs layer spec) ~payload:"conformance" spec in
    List.iteri
      (fun i (casts, _) ->
         (* The crashed member (when there is a crash) still delivered
            before crashing — the cast precedes the crash. *)
         Alcotest.(check (list string))
           (Printf.sprintf "%s: member %d delivered" spec i)
           [ "conformance" ] casts)
      obs;
    (* Stacks providing virtual synchrony must also survive the crash:
       both survivors reconfigure to a 2-member view. *)
    if provides_vs layer spec then
      List.iteri
        (fun i (_, final) ->
           if i < 2 then
             Alcotest.(check int)
               (Printf.sprintf "%s: member %d reconfigured to 2" spec i)
               2
               (match final with Some (_, ms) -> List.length ms | None -> 0))
        obs

(* Registry sweep: catalogue coverage, and the cast reaches everyone. *)
let run_registry_conformance (entry : Horus_hcpi.Registry.entry) () =
  match Layer_spec.find entry.Horus_hcpi.Registry.name with
  | None ->
    Alcotest.failf "registered layer %s has no property spec in the catalogue"
      entry.Horus_hcpi.Registry.name
  | Some layer ->
    (match hosting_stack layer with
     | None -> Alcotest.failf "no hosting stack for %s" layer.Layer_spec.name
     | Some spec ->
       let crash = has_membership spec in
       let payload = "conf-" ^ layer.Layer_spec.name in
       List.iteri
         (fun i (casts, _) ->
            Alcotest.(check (list string))
              (Printf.sprintf "%s: member %d delivered" spec i)
              [ payload ] casts)
         (run_stack ~crash ~payload spec))

(* --- The property-algebra conformance engine (lib/check/conformance) --- *)

module Conf = Horus_check.Conformance
module Contract = Horus_props.Contract

let test_generator_distinct_and_deterministic () =
  let a = Conf.generate ~seed:11 ~count:100 ~max_depth:5 in
  let b = Conf.generate ~seed:11 ~count:100 ~max_depth:5 in
  Alcotest.(check int) "one hundred distinct stacks" 100 (List.length a);
  let specs l = List.map (fun (s : Conf.stack) -> s.Conf.st_spec) l in
  Alcotest.(check (list string)) "same seed, same stacks" (specs a) (specs b);
  Alcotest.(check int) "specs are distinct" 100
    (List.length (List.sort_uniq compare (specs a)));
  List.iter
    (fun (s : Conf.stack) ->
       Alcotest.(check bool)
         (Printf.sprintf "%s is well-formed" s.Conf.st_spec)
         true
         (Horus_props.Check.well_formed ~net:p1 s.Conf.st_layers);
       Alcotest.(check bool)
         (Printf.sprintf "%s has a runnable slice" s.Conf.st_spec)
         true (s.Conf.st_slice <> []);
       (* The slice is exactly the runnable part of the contract. *)
       Alcotest.(check bool)
         (Printf.sprintf "%s slice matches contract" s.Conf.st_spec)
         true
         (List.for_all (fun p -> P.Set.mem s.Conf.st_props p) s.Conf.st_slice))
    a;
  let other = Conf.generate ~seed:12 ~count:100 ~max_depth:5 in
  Alcotest.(check bool) "different seed, different random tail" true
    (specs a <> specs other)

let test_generator_never_stacks_two_membership_layers () =
  (* The conflicts column, end to end: no generated stack carries two
     membership services (the BMS-over-MBRSHIP blackhole). *)
  List.iter
    (fun (s : Conf.stack) ->
       let memb =
         List.filter
           (fun (l : Layer_spec.t) -> l.Layer_spec.name = "MBRSHIP" || l.Layer_spec.name = "BMS")
           s.Conf.st_layers
       in
       Alcotest.(check bool)
         (Printf.sprintf "%s has at most one membership layer" s.Conf.st_spec)
         true
         (List.length memb <= 1))
    (Conf.generate ~seed:3 ~count:100 ~max_depth:5)

let test_bridge_total_over_runnable () =
  (* Every runnable property maps to at least one predicate: on an
     obviously broken run (member 0 sent one cast, nobody delivered
     anything, no views anywhere) each runnable property must fire. *)
  let scenario =
    Horus_check.Scenario.make ~name:"bridge-totality" ~seed:1
      ~ops:[ { Horus_check.Scenario.op_member = 0; op_at = 0.0; op_pad = 0 } ]
      ~spec:"COM" ~n:2 ()
  in
  let broken : Horus_check.Runner.result =
    { Horus_check.Runner.r_scenario = scenario;
      r_obs =
        [ { Horus_check.Invariant.o_member = 0; o_eid = 0; o_crashed = false; o_left = false;
            o_exited = false; o_casts = []; o_views = []; o_final = None };
          { Horus_check.Invariant.o_member = 1; o_eid = 1; o_crashed = false; o_left = false;
            o_exited = false;
            o_casts = [ ("o0-0x7", 0); ("o0-001", 0) ];
            o_views = [ ((0, 0), [ 1 ]) ];
            o_final = Some (0, [ 1 ]) };
        ];
      r_violations = [];
      r_choice_points = 0;
      r_arities = [];
      r_taken = [] }
  in
  let props = P.Set.of_numbers [ 3; 4; 5; 6; 9; 12; 15 ] in
  List.iter
    (fun p ->
       Alcotest.(check bool)
         (Format.asprintf "%a fires on the broken run" P.pp p)
         true
         (Conf.check_property ~props broken p <> []))
    Contract.runnable;
  (* Non-runnable properties map to the empty slice, not an error. *)
  Alcotest.(check int) "non-runnable is silent" 0
    (List.length (Conf.check_property ~props broken P.P2_prioritized))

let test_blame_classification () =
  (* A property provided by a layer: blame names the provider. *)
  let layers = List.map Layer_spec.find_exn [ "TOTAL"; "MBRSHIP"; "FRAG"; "NAK"; "COM" ] in
  let b = Contract.blame ~net:p1 layers P.P6_total_order in
  Alcotest.(check (list string)) "P6 blames TOTAL" [ "TOTAL" ] b.Contract.b_providers;
  Alcotest.(check bool) "not from the net" false b.Contract.b_from_net;
  Alcotest.(check bool) "classification mentions TOTAL" true
    (let s = Contract.classification b in
     let rec has i =
       i + 5 <= String.length s && (String.sub s i 5 = "TOTAL" || has (i + 1))
     in
     has 0);
  (* A property nobody provides: an encoding bug in the harness. *)
  let b = Contract.blame ~net:p1 layers P.P2_prioritized in
  Alcotest.(check (list string)) "P2 has no provider" [] b.Contract.b_providers

let test_mini_sweep_deterministic () =
  (* A bounded end-to-end sweep: a handful of stacks under the clean
     profile, twice; verdicts all pass and the report fingerprint is
     bit-identical. *)
  let cf =
    { Conf.cf_seed = 7; cf_stacks = 6; cf_max_depth = 4;
      cf_profiles = [ ("clean", Horus_transport.Chaos.default) ]; cf_save = None }
  in
  let r1 = Conf.sweep cf in
  let r2 = Conf.sweep cf in
  Alcotest.(check int) "six stacks" 6 r1.Conf.rp_stacks;
  Alcotest.(check int) "six runs" 6 r1.Conf.rp_runs;
  Alcotest.(check int) "no failures" 0 r1.Conf.rp_failures;
  Alcotest.(check bool) "report ok" true (Conf.ok r1);
  Alcotest.(check int64) "double-run fingerprints agree" r1.Conf.rp_fingerprint
    r2.Conf.rp_fingerprint

let () =
  Horus_layers.Init.register_all ();
  let table3_cases =
    List.map
      (fun (layer : Layer_spec.t) ->
         Alcotest.test_case
           (Printf.sprintf "%s in its synthesized stack" layer.Layer_spec.name)
           `Quick (run_conformance layer))
      Layer_spec.table3
  in
  let registry_cases =
    List.map
      (fun (entry : Horus_hcpi.Registry.entry) ->
         Alcotest.test_case
           (Printf.sprintf "%s: runs" entry.Horus_hcpi.Registry.name)
           `Quick (run_registry_conformance entry))
      (Horus_hcpi.Registry.all ())
  in
  Alcotest.run "conformance"
    [ ("table3", table3_cases);
      ("registry", registry_cases);
      ( "engine",
        [ Alcotest.test_case "generator: 100 distinct, deterministic, well-formed" `Quick
            test_generator_distinct_and_deterministic;
          Alcotest.test_case "generator respects the conflicts column" `Quick
            test_generator_never_stacks_two_membership_layers;
          Alcotest.test_case "bridge covers every runnable property" `Quick
            test_bridge_total_over_runnable;
          Alcotest.test_case "blame classifies provider vs encoding" `Quick
            test_blame_classification;
          Alcotest.test_case "mini sweep: clean, deterministic" `Quick
            test_mini_sweep_deterministic ] ) ]
