(* A scenario: one complete, self-contained description of a group
   test run against the production stack — the stack spec, the group
   size, the network adversary, a traffic schedule, a fault schedule,
   and (optionally) a dispatch schedule for the Engine chooser. A
   scenario plus this repository's code is a deterministic function:
   running it twice produces byte-identical results. That is what
   makes scenarios usable as counterexamples, shrinkable, and
   serializable to repro files (see Repro). *)

module Json = Horus_obs.Json

type net = {
  latency : float;
  jitter : float;
  drop : float;
  duplicate : float;
  garble : float;
  mtu : int;
}

let default_net =
  let c = Horus_sim.Net.default_config in
  { latency = c.Horus_sim.Net.latency;
    jitter = c.Horus_sim.Net.jitter;
    drop = c.Horus_sim.Net.drop_prob;
    duplicate = c.Horus_sim.Net.duplicate_prob;
    garble = c.Horus_sim.Net.garble_prob;
    mtu = c.Horus_sim.Net.mtu }

let net_config n =
  { Horus_sim.Net.latency = n.latency;
    jitter = n.jitter;
    drop_prob = n.drop;
    duplicate_prob = n.duplicate;
    garble_prob = n.garble;
    mtu = n.mtu }

type fault =
  | Crash of int
  | Leave of int
  | Join of int
      (* churn: the member sits out the initial join wave and joins
         (contacting member 0) at the fault time instead *)
  | Suspect of int * int
  | Partition of int list list
  | Heal

type timed_fault = {
  f_at : float;
  f_fault : fault;
}

type op = {
  op_member : int;
  op_at : float;
  op_pad : int;  (* extra payload bytes past the canonical form; 0 = none *)
}

type sched = {
  s_horizon : float;
  s_width : int;
  s_from : float;
  s_choices : int list;
}

let default_sched = { s_horizon = 0.002; s_width = 4; s_from = 0.0; s_choices = [] }

type t = {
  name : string;
  spec : string;
  n : int;
  seed : int;
  net : net;
  chaos : Horus_transport.Chaos.profile option;
  links : (int * int * float) list;
  join_spacing : float;
  settle : float;
  ops : op list;
  faults : timed_fault list;
  run_for : float;
  sched : sched option;
  expect_violation : bool;
}

let make ?(name = "scenario") ?(seed = 1) ?(net = default_net) ?chaos ?(links = [])
    ?(join_spacing = 0.4) ?(settle = 2.0) ?(ops = []) ?(faults = []) ?(run_for = 10.0)
    ?sched ?(expect_violation = false) ~spec ~n () =
  if n < 1 then invalid_arg "Scenario.make: n must be >= 1";
  { name; spec; n; seed; net; chaos; links; join_spacing; settle; ops; faults; run_for;
    sched; expect_violation }

(* Member indices a fault mentions. *)
let fault_members = function
  | Crash m | Leave m | Join m -> [ m ]
  | Suspect (a, b) -> [ a; b ]
  | Partition groups -> List.concat groups
  | Heal -> []

let crashed_members t =
  List.filter_map
    (fun f -> match f.f_fault with Crash m -> Some m | _ -> None)
    t.faults

let left_members t =
  List.filter_map
    (fun f -> match f.f_fault with Leave m -> Some m | _ -> None)
    t.faults

let late_members t =
  List.sort_uniq compare
    (List.filter_map
       (fun f -> match f.f_fault with Join m -> Some m | _ -> None)
       t.faults)

(* --- JSON (schema "horus-repro/1") --- *)

let schema = "horus-repro/1"

let fault_to_json = function
  | Crash m -> Json.Obj [ ("kind", Json.String "crash"); ("member", Json.Int m) ]
  | Leave m -> Json.Obj [ ("kind", Json.String "leave"); ("member", Json.Int m) ]
  | Join m -> Json.Obj [ ("kind", Json.String "join"); ("member", Json.Int m) ]
  | Suspect (a, b) ->
    Json.Obj
      [ ("kind", Json.String "suspect"); ("by", Json.Int a); ("member", Json.Int b) ]
  | Partition groups ->
    Json.Obj
      [ ("kind", Json.String "partition");
        ("groups",
         Json.List (List.map (fun g -> Json.List (List.map (fun m -> Json.Int m) g)) groups))
      ]
  | Heal -> Json.Obj [ ("kind", Json.String "heal") ]

let to_json t =
  let net =
    Json.Obj
      [ ("latency", Json.Float t.net.latency);
        ("jitter", Json.Float t.net.jitter);
        ("drop", Json.Float t.net.drop);
        ("duplicate", Json.Float t.net.duplicate);
        ("garble", Json.Float t.net.garble);
        ("mtu", Json.Int t.net.mtu) ]
  in
  let ops =
    Json.List
      (List.map
         (fun o ->
            (* "pad" is emitted only when set, so pre-pad repro files
               round-trip byte-identically. *)
            Json.Obj
              ([ ("member", Json.Int o.op_member); ("at", Json.Float o.op_at) ]
               @ (if o.op_pad > 0 then [ ("pad", Json.Int o.op_pad) ] else [])))
         t.ops)
  in
  let faults =
    Json.List
      (List.map
         (fun f -> Json.Obj [ ("at", Json.Float f.f_at); ("fault", fault_to_json f.f_fault) ])
         t.faults)
  in
  let sched =
    match t.sched with
    | None -> Json.Null
    | Some s ->
      Json.Obj
        [ ("horizon", Json.Float s.s_horizon);
          ("width", Json.Int s.s_width);
          ("from", Json.Float s.s_from);
          ("choices", Json.List (List.map (fun c -> Json.Int c) s.s_choices)) ]
  in
  let links =
    Json.List
      (List.map
         (fun (src, dst, lat) ->
            Json.Obj
              [ ("src", Json.Int src); ("dst", Json.Int dst); ("latency", Json.Float lat) ])
         t.links)
  in
  Json.Obj
    [ ("schema", Json.String schema);
      ("name", Json.String t.name);
      ("spec", Json.String t.spec);
      ("n", Json.Int t.n);
      ("seed", Json.Int t.seed);
      ("net", net);
      ( "chaos",
        match t.chaos with
        | None -> Json.Null
        | Some p -> Horus_transport.Chaos.profile_to_json p );
      ("links", links);
      ("join_spacing", Json.Float t.join_spacing);
      ("settle", Json.Float t.settle);
      ("ops", ops);
      ("faults", faults);
      ("run_for", Json.Float t.run_for);
      ("sched", sched);
      ("expect_violation", Json.Bool t.expect_violation) ]

(* Lenient field accessors: a missing optional field takes its
   default, so hand-edited repro files stay loadable. *)
let jfloat ?default name j =
  match Option.bind (Json.member name j) Json.to_float with
  | Some f -> Ok f
  | None ->
    (match default with
     | Some d -> Ok d
     | None -> Error (Printf.sprintf "missing float field %S" name))

let jint ?default name j =
  match Option.bind (Json.member name j) Json.to_int with
  | Some i -> Ok i
  | None ->
    (match default with
     | Some d -> Ok d
     | None -> Error (Printf.sprintf "missing int field %S" name))

let jstring ?default name j =
  match Json.member name j with
  | Some (Json.String s) -> Ok s
  | _ ->
    (match default with
     | Some d -> Ok d
     | None -> Error (Printf.sprintf "missing string field %S" name))

let ( let* ) = Result.bind

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = collect f rest in
    Ok (y :: ys)

let fault_of_json j =
  let* kind = jstring "kind" j in
  match kind with
  | "crash" ->
    let* m = jint "member" j in
    Ok (Crash m)
  | "leave" ->
    let* m = jint "member" j in
    Ok (Leave m)
  | "join" ->
    let* m = jint "member" j in
    Ok (Join m)
  | "suspect" ->
    let* a = jint "by" j in
    let* b = jint "member" j in
    Ok (Suspect (a, b))
  | "partition" ->
    (match Json.member "groups" j with
     | Some (Json.List groups) ->
       let* groups =
         collect
           (function
             | Json.List ms ->
               collect (fun m -> Option.to_result ~none:"bad member id" (Json.to_int m)) ms
             | _ -> Error "partition groups must be lists")
           groups
       in
       Ok (Partition groups)
     | _ -> Error "partition fault needs a groups list")
  | "heal" -> Ok Heal
  | k -> Error (Printf.sprintf "unknown fault kind %S" k)

let of_json j =
  let* schema_got = jstring ~default:schema "schema" j in
  if schema_got <> schema then Error (Printf.sprintf "unsupported schema %S" schema_got)
  else
    let* name = jstring ~default:"scenario" "name" j in
    let* spec = jstring "spec" j in
    let* n = jint "n" j in
    let* seed = jint ~default:1 "seed" j in
    let* net =
      match Json.member "net" j with
      | None | Some Json.Null -> Ok default_net
      | Some nj ->
        let* latency = jfloat ~default:default_net.latency "latency" nj in
        let* jitter = jfloat ~default:default_net.jitter "jitter" nj in
        let* drop = jfloat ~default:default_net.drop "drop" nj in
        let* duplicate = jfloat ~default:default_net.duplicate "duplicate" nj in
        let* garble = jfloat ~default:default_net.garble "garble" nj in
        let* mtu = jint ~default:default_net.mtu "mtu" nj in
        Ok { latency; jitter; drop; duplicate; garble; mtu }
    in
    let* chaos =
      match Json.member "chaos" j with
      | None | Some Json.Null -> Ok None
      | Some cj -> Result.map Option.some (Horus_transport.Chaos.profile_of_json cj)
    in
    let* links =
      match Json.member "links" j with
      | None | Some Json.Null -> Ok []
      | Some (Json.List ls) ->
        collect
          (fun lj ->
             let* src = jint "src" lj in
             let* dst = jint "dst" lj in
             let* lat = jfloat "latency" lj in
             Ok (src, dst, lat))
          ls
      | Some _ -> Error "links must be a list"
    in
    let* join_spacing = jfloat ~default:0.4 "join_spacing" j in
    let* settle = jfloat ~default:2.0 "settle" j in
    let* ops =
      match Json.member "ops" j with
      | None | Some Json.Null -> Ok []
      | Some (Json.List ops) ->
        collect
          (fun oj ->
             let* m = jint "member" oj in
             let* at = jfloat "at" oj in
             let* pad = jint ~default:0 "pad" oj in
             Ok { op_member = m; op_at = at; op_pad = pad })
          ops
      | Some _ -> Error "ops must be a list"
    in
    let* faults =
      match Json.member "faults" j with
      | None | Some Json.Null -> Ok []
      | Some (Json.List fs) ->
        collect
          (fun fj ->
             let* at = jfloat "at" fj in
             let* fault =
               match Json.member "fault" fj with
               | Some f -> fault_of_json f
               | None -> Error "fault entry needs a fault object"
             in
             Ok { f_at = at; f_fault = fault })
          fs
      | Some _ -> Error "faults must be a list"
    in
    let* run_for = jfloat ~default:10.0 "run_for" j in
    let* sched =
      match Json.member "sched" j with
      | None | Some Json.Null -> Ok None
      | Some sj ->
        let* s_horizon = jfloat ~default:default_sched.s_horizon "horizon" sj in
        let* s_width = jint ~default:default_sched.s_width "width" sj in
        let* s_from = jfloat ~default:default_sched.s_from "from" sj in
        let* s_choices =
          match Json.member "choices" sj with
          | None | Some Json.Null -> Ok []
          | Some (Json.List cs) ->
            collect (fun c -> Option.to_result ~none:"bad choice" (Json.to_int c)) cs
          | Some _ -> Error "choices must be a list"
        in
        (* Repro files may carry ["walk": null] (the committed ones
           do); a walk seed would ask for a random schedule, which the
           runner does not draw. *)
        (match Json.member "walk" sj with
         | None | Some Json.Null -> Ok (Some { s_horizon; s_width; s_from; s_choices })
         | Some _ -> Error "sched.walk (a random-walk seed) is not supported; give choices")
    in
    let* expect_violation =
      match Json.member "expect_violation" j with
      | Some (Json.Bool b) -> Ok b
      | None | Some Json.Null -> Ok false
      | Some _ -> Error "expect_violation must be a bool"
    in
    (* Sanity: reject values the runner would raise on. *)
    let require ok msg = if ok then Ok () else Error msg in
    let* () = require (n >= 1) "n must be at least 1" in
    let* () =
      Horus_layers.Init.register_all ();
      match Horus_hcpi.Spec.resolve (Horus_hcpi.Spec.parse spec) with
      | _ -> Ok ()
      | exception Horus_hcpi.Spec.Parse_error e -> Error ("bad spec: " ^ e)
    in
    let* () =
      require
        (net.latency >= 0.0 && net.jitter >= 0.0
         && List.for_all (fun (_, _, lat) -> lat >= 0.0) links)
        "latencies and jitter must not be negative"
    in
    let* () =
      require (Option.fold ~none:true ~some:(fun s -> s.s_width >= 1) sched)
        "sched.width must be at least 1"
    in
    let bad_member m = m < 0 || m >= n in
    if List.exists (fun o -> bad_member o.op_member) ops then
      Error "op references a member index out of range"
    else if List.exists (fun f -> List.exists bad_member (fault_members f.f_fault)) faults
    then Error "fault references a member index out of range"
    else if List.exists (fun (s, d, _) -> bad_member s || bad_member d) links then
      Error "link references a member index out of range"
    else
      Ok
        { name; spec; n; seed; net; chaos; links; join_spacing; settle; ops; faults;
          run_for; sched; expect_violation }

let of_string s =
  match Json.of_string s with
  | Error e -> Error ("repro JSON parse error: " ^ e)
  | Ok j -> of_json j

let to_string t = Json.to_string ~indent:true (to_json t)

let pp fmt t =
  Format.fprintf fmt "%s: %s n=%d seed=%d ops=%d faults=%d%s%s" t.name t.spec t.n t.seed
    (List.length t.ops) (List.length t.faults)
    (match t.chaos with
     | Some p when not (Horus_transport.Chaos.is_quiet p) -> " chaos"
     | Some _ | None -> "")
    (match t.sched with
     | Some s when s.s_choices <> [] ->
       Printf.sprintf " sched=[%s]" (String.concat ";" (List.map string_of_int s.s_choices))
     | _ -> "")
