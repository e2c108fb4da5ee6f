(* Closed-loop UDP cast benchmark for the Section-7 stack
   TOTAL:MBRSHIP:FRAG:NAK:COM over 127.0.0.1 (loopback, not a real link).

   perf.exe --workload W --seed N --seconds S --trace 0|1
       One run of one workload in this process. With --trace 0 it
       prints the end-to-end metrics; with --trace 1 the per-layer
       ones. The last line of stdout is one JSON object
       {"correct", "attempted", "failed", "metrics"}.

   perf.exe --json FILE [--seed N]
       The whole benchmark: every workload [reps] times for [rep_seconds],
       interleaved, each repetition a fresh process, then one traced run
       per workload. Writes medians, quartiles and sample counts to FILE.

   perf.exe compare A.json B.json [--bench BENCHMARK.json]
       Judge B against A per (end-to-end metric, workload) with the
       bounds in BENCHMARK.json.

   Exits non-zero when any correctness check fails. *)

open Horus
open Perf_lib
module J = Json

let die code fmt = Printf.ksprintf (fun s -> prerr_endline ("perf: " ^ s); exit code) fmt

(* Program defaults throughout: fastpath off, scalar syscalls. *)
let defaults = { Workload.fastpath = false; batch = 0; traced = false; setups = 1;
                 warm_s = 2.0; measure_s = 1.0 }

(* Set-up is timed at least [setups] times per untraced run; setup_s is
   their median. *)
let setups = 5

let per_cast n x = if n = 0 then Float.nan else x /. float_of_int n

(* --- end-to-end ------------------------------------------------------ *)

(* Times are scaled to the nominal host (see Calibrate); [raw] gives
   the unscaled wall-clock figures for the human-readable lines. *)
let end_to_end ?(raw = false) (o : Workload.outcome) =
  let n = o.completed and d = o.delta in
  let lat = if raw then o.raw_latencies_us else o.latencies_us in
  let pct p = match Stats.nearest_rank lat p with Some v -> v | None -> Float.nan in
  [ ("casts_per_s", float_of_int n /. if raw then o.load_s else o.norm_s);
    ("latency_p50_us", pct 0.50);
    ("latency_p99_us", pct 0.99);
    ("setup_s", Stats.median o.setups_s);
    ( "cpu_us_per_cast",
      per_cast n (1e6 *. if raw then d.(Workload.C.cpu) else o.norm_cpu_s) );
    ("minor_words_per_cast", per_cast n d.(Workload.C.words));
    ("wire_bytes_per_cast", per_cast n d.(Workload.C.bytes)) ]

(* --- per-layer, from the traced run --------------------------------- *)

let per_layer ~(reference : Workload.outcome) ~(fused : Workload.outcome)
    ~(batched : Workload.outcome) ~(traced : Workload.outcome) =
  let module C = Workload.C in
  let tr = match traced.tracer with Some t -> t | None -> assert false in
  let n = traced.completed and d = traced.delta in
  let pc x = per_cast n x in
  (* Self times scaled to the nominal host like the end-to-end ones. *)
  let speed = Workload.speed traced in
  let ns_of x = float_of_int x *. speed in
  let ns seg = pc (ns_of tr.Tracer.self_ns.(seg)) in
  let cps (o : Workload.outcome) = float_of_int o.completed /. o.norm_s in
  let sends = tr.Tracer.calls.(Tracer.send) in
  let polls = tr.Tracer.calls.(Tracer.poll) in
  let per_send = if sends = 0 then 0.0 else ns_of tr.Tracer.self_ns.(Tracer.send) /. float_of_int sends in
  let hop p =
    if Array.length traced.hops_us = 0 then 0.0
    else match Stats.nearest_rank traced.hops_us p with Some v -> v *. speed | None -> Float.nan
  in
  [ ( "latency.p999_us",
      match Stats.nearest_rank reference.latencies_us 0.999 with Some v -> v | None -> 0.0 );
    ("core.cast_call_ns", pc (ns_of tr.Tracer.incl_ns.(Tracer.cast)));
    ("hcpi.down_dispatch_ns", ns Tracer.cast);
    ("hcpi.up_dispatch_ns", ns Tracer.rx);
    ("hcpi.crossings_per_cast", pc d.(C.crossings)) ]
  @ List.concat
      (List.mapi
         (fun i l ->
            [ ("layers." ^ l ^ ".down_ns", ns (Tracer.down i));
              ("layers." ^ l ^ ".up_ns", ns (Tracer.up i));
              ( "layers." ^ l ^ ".minor_words",
                pc (tr.Tracer.self_words.(Tracer.down i) +. tr.Tracer.self_words.(Tracer.up i)) ) ])
         (Array.to_list Tracer.layers))
  @ [ ("layers.NAK.retransmits_per_kcast", pc (1000.0 *. d.(C.retransmits)));
      ("transport.send_ns", per_send);
      ("transport.recv_ns", ns Tracer.poll);
      ("transport.datagrams_per_cast", pc d.(C.sent));
      ( "transport.syscalls_per_cast",
        pc (d.(C.sent) -. d.(C.posted) +. (d.(C.delivered) -. d.(C.drained)) +. float_of_int polls) );
      ("transport.bad_frames", d.(C.bad_frames));
      ("driver.step_other_ns", ns Tracer.step);
      ("sim.events_per_cast", pc d.(C.events));
      ("process.cpu_util", d.(C.cpu) /. (d.(C.ns) /. 1e9));
      ("gc.minor_collections_per_kcast", pc (1000.0 *. d.(C.minor_gcs)));
      ("gc.major_collections_per_kcast", pc (1000.0 *. d.(C.major_gcs)));
      ("shard.post_ns", if traced.spec.sharded then per_send else 0.0);
      ("shard.hop_us_p50", hop 0.50);
      ("shard.hop_us_p99", hop 0.99);
      ("shard.posted_per_cast", pc d.(C.posted));
      ("shard.mailbox_hwm", traced.shard_hwm);
      ( "trace.unattributed_share",
        (traced.domain_ns -. float_of_int tr.Tracer.outer_ns) /. traced.domain_ns );
      ("trace.overhead_pct", 100.0 *. (cps reference -. cps traced) /. cps reference);
      ("ablation.fused.cpu_us_per_cast", per_cast fused.completed (fused.norm_cpu_s *. 1e6));
      ( "ablation.fused.minor_words_per_cast",
        per_cast fused.completed fused.delta.(C.words) );
      ( "ablation.fused.send_fused_share",
        let f = fused.delta.(C.fused) and u = fused.delta.(C.unfused) in
        if f +. u = 0.0 then 0.0 else f /. (f +. u) );
      ( "ablation.batched.cpu_us_per_cast",
        per_cast batched.completed (batched.norm_cpu_s *. 1e6) );
      ( "ablation.batched.syscalls_per_cast",
        per_cast batched.completed batched.delta.(C.batched_syscalls) );
      ("host.speed", traced.kernel_speed) ]

(* --- one run ---------------------------------------------------------- *)

let describe (o : Workload.outcome) =
  Format.printf "%s%s%s: %a; views %s; bad frames %d%s@." o.spec.name
    (if o.opts.traced then " (traced)" else "")
    (if o.opts.fastpath then " (fastpath)" else if o.opts.batch > 0 then " (batched)" else "")
    Checker.pp o.report
    (if o.views_agree then "agree" else "DISAGREE")
    (int_of_float o.delta.(Workload.C.bad_frames))
    (if o.spec.sharded then Printf.sprintf "; mailbox posts shed %d" o.shard_overflow else "");
  Format.printf "%s: %.3g s measured, kernel speed %.3f of nominal, time scale %.3f%s@."
    o.spec.name o.load_s o.kernel_speed (Workload.speed o)
    (if o.stalled then "; A CHUNK DID NOT DRAIN" else "")

let run_one ~workload ~seed ~seconds ~trace =
  let spec = match Workload.find workload with Some s -> s | None -> die 2 "unknown workload %s" workload in
  if spec.sharded && Domain.recommended_domain_count () < spec.members then
    die 3 "%s skipped: needs %d domains, the host recommends %d" workload spec.members
      (Domain.recommended_domain_count ());
  (* World.create registers the layer library; its seeded generator
     also makes the payload pad pool. *)
  let seed_world = World.create ~seed () in
  let gen =
    Payload.make ~random_bytes:(Horus_util.Prng.bytes (World.prng seed_world)) ~size:spec.size
      ~senders:spec.senders
  in
  let run opts = Workload.run spec opts ~seed ~gen in
  let outcomes, metrics =
    if not trace then begin
      let o = run { defaults with setups; measure_s = seconds } in
      ([ o ], end_to_end o)
    end
    else begin
      (* The untraced reference runs right before the traced segment,
         so the overhead compares neighbours; it also supplies the
         p999, which needs the most samples. *)
      let seg share = { defaults with warm_s = 1.0; measure_s = seconds *. share } in
      let fused = run { (seg (1.0 /. 6.0)) with fastpath = true } in
      let batched = run { (seg (1.0 /. 6.0)) with batch = Transport.Defaults.mmsg_batch } in
      let reference = run (seg (1.0 /. 3.0)) in
      Tracer.instrument_registry ();
      let traced = run { (seg (1.0 /. 3.0)) with traced = true } in
      ([ fused; batched; reference; traced ], per_layer ~reference ~fused ~batched ~traced)
    end
  in
  List.iter describe outcomes;
  (* The unscaled values of the scaled metrics, also as one JSON line
     that the full run reads back. *)
  let raw =
    if trace then []
    else
      List.filter (fun (name, _) -> List.mem name Catalog.scaled) (end_to_end ~raw:true (List.hd outcomes))
  in
  List.iter
    (fun (name, v) ->
       Format.printf "%s raw %s = %.6g %s@." spec.name name v
         (Option.value ~default:"" (Catalog.unit_of name)))
    raw;
  if raw <> [] then
    print_endline (J.to_string (J.Obj [ ("raw", J.Obj (List.map (fun (n, v) -> (n, J.Float v)) raw)) ]));
  List.iter
    (fun (name, v) ->
       Format.printf "%s %s = %.6g %s@." spec.name name v
         (Option.value ~default:"" (Catalog.unit_of name)))
    metrics;
  let attempted = List.fold_left (fun acc (o : Workload.outcome) -> acc + o.issued) 0 outcomes in
  let failed =
    List.fold_left
      (fun acc (o : Workload.outcome) -> acc + o.report.failed + o.report.unknown)
      0 outcomes
  in
  let missing = List.filter (fun (_, v) -> not (Float.is_finite v)) metrics in
  List.iter (fun (name, _) -> Format.printf "%s %s: not measurable in this run@." spec.name name) missing;
  let correct = List.for_all Workload.ok outcomes && missing = [] && attempted > 0 in
  let result =
    J.Obj
      [ ("correct", J.Bool correct);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ( "metrics",
          J.Obj
            (List.map
               (fun (name, v) ->
                  ( name,
                    J.Obj
                      [ ("value", J.Float v);
                        ("unit", J.String (Option.value ~default:"" (Catalog.unit_of name))) ] ))
               metrics) ) ]
  in
  print_endline (J.to_string result);
  exit (if correct then 0 else 1)

(* --- the whole benchmark --------------------------------------------- *)

(* Five repetitions of 5 s: with three, Python's quartiles are the
   extremes and one outlier repetition decides the spread. Fixed, so
   that every report is comparable with every other. *)
let reps = 5
let rep_seconds = 5.0

let child ~seed ~trace workload =
  let exe = Sys.executable_name in
  let args =
    [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
       Printf.sprintf "%g" rep_seconds; "--trace"; (if trace then "1" else "0") |]
  in
  let ic = Unix.open_process_args_in exe args in
  let last = ref "" and raw = ref [] in
  (try
     while true do
       let line = input_line ic in
       print_endline ("  " ^ line);
       if String.starts_with ~prefix:"{\"raw\"" line then
         Result.iter
           (fun j -> Option.iter (fun r -> raw := Report.values_of r) (J.member "raw" j))
           (J.of_string line);
       last := line
     done
   with End_of_file -> ());
  let result =
    match (Unix.close_process_in ic, J.of_string !last) with
    | Unix.WEXITED 3, _ -> Report.Skipped
    | Unix.WEXITED (0 | 1), Ok j -> Report.Done { result = j; raw = !raw }
    | _, Error e -> Report.Crashed ("unreadable result: " ^ e)
    | _, Ok _ -> Report.Crashed "exited abnormally"
  in
  (match result with Report.Crashed why -> Printf.printf "  %s: %s\n%!" workload why | _ -> ());
  result

let run_all ~json ~seed =
  let names = List.map (fun (s : Workload.spec) -> s.name) Workload.specs in
  let runs = Hashtbl.create 16 in
  let record w r = Hashtbl.replace runs w (r :: Option.value ~default:[] (Hashtbl.find_opt runs w)) in
  (* Interleaved (w1..w5, w1..w5, ...) so host drift spreads evenly. *)
  for rep = 1 to reps do
    List.iter
      (fun w ->
         Printf.printf "== %s, repetition %d/%d\n%!" w rep reps;
         record w (child ~seed ~trace:false w))
      names
  done;
  let traced =
    List.map
      (fun w ->
         Printf.printf "== %s, traced run\n%!" w;
         (w, child ~seed ~trace:true w))
      names
  in
  let workloads =
    List.map
      (fun (spec : Workload.spec) ->
         let w = spec.name in
         ( w,
           Report.workload ~why:spec.why ~traced:(List.assoc w traced)
             (List.rev (Option.value ~default:[] (Hashtbl.find_opt runs w))) ))
      Workload.specs
  in
  let all_ok =
    List.for_all (fun (_, j) -> List.mem (Verdict.status j) [ "ok"; "skipped" ]) workloads
  in
  let report =
    J.Obj
      [ ("schema", J.String "horus-perf/1");
        ("stack", J.String Workload.stack);
        ("transport", J.String "UDP on 127.0.0.1 (loopback interface, not a real link)");
        ("seed", J.Int seed);
        ("reps", J.Int reps);
        ("measure_s", J.Float rep_seconds);
        ("domains", J.Int (Domain.recommended_domain_count ()));
        ("workloads", J.Obj workloads) ]
  in
  let oc = open_out json in
  output_string oc (J.to_string ~indent:true report);
  close_out oc;
  Printf.printf "\n%-13s %-22s %12s %12s %12s %3s %s\n" "workload" "metric" "median" "q1" "q3" "n" "unit";
  List.iter
    (fun (w, j) ->
       (match J.member "end_to_end" j with
        | Some (J.Obj ms) ->
          List.iter
            (fun (name, s) ->
               let f k = Option.value ~default:Float.nan (Option.bind (J.member k s) J.to_float) in
               Printf.printf "%-13s %-22s %12.6g %12.6g %12.6g %3d %s\n" w name (f "median")
                 (f "q1") (f "q3") (Report.int_field "n" s)
                 (match J.member "unit" s with Some (J.String u) -> u | _ -> ""))
            ms
        | _ -> ());
       Printf.printf "%-13s status %s\n" w (Verdict.status j))
    workloads;
  Printf.printf "wrote %s\n" json;
  exit (if all_ok then 0 else 1)

(* --- compare ---------------------------------------------------------- *)

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> (match J.of_string s with Ok j -> j | Error e -> die 2 "%s: %s" path e)
  | exception Sys_error e -> die 2 "%s" e

let compare_files ~bench a b =
  let bounds =
    match Verdict.bounds_of_benchmark (read_json bench) with
    | Ok bs -> bs
    | Error e -> die 2 "%s: %s" bench e
  in
  match Verdict.compare ~bounds (read_json a) (read_json b) with
  | Error e -> die 2 "%s" e
  | Ok rows ->
    Format.printf "A = %s, B = %s@.%a@." a b Verdict.pp_header ();
    List.iter (fun r -> Format.printf "%a@." Verdict.pp_row r) rows;
    exit (if Verdict.regressed rows then 1 else 0)

(* --- arguments ------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) rest
    | [] -> acc
    | k :: _ -> die 2 "unexpected argument %s" k
  in
  let int_of k v = match int_of_string_opt v with Some i -> i | None -> die 2 "%s: not an integer: %s" k v in
  let float_of k v =
    match float_of_string_opt v with Some f when f > 0.0 -> f | _ -> die 2 "%s: not a positive number: %s" k v
  in
  let only o keys =
    List.iter (fun (k, _) -> if not (List.mem k keys) then die 2 "unexpected option %s" k) o
  in
  match args with
  | "compare" :: a :: b :: rest ->
    let o = opts [] rest in
    only o [ "--bench" ];
    compare_files ~bench:(Option.value ~default:"BENCHMARK.json" (List.assoc_opt "--bench" o)) a b
  | _ ->
    let o = opts [] args in
    let get k = List.assoc_opt k o in
    let seed = Option.fold ~none:1 ~some:(int_of "--seed") (get "--seed") in
    (match (get "--workload", get "--json") with
     | Some w, None ->
       only o [ "--workload"; "--seed"; "--seconds"; "--trace" ];
       let seconds = Option.fold ~none:10.0 ~some:(float_of "--seconds") (get "--seconds") in
       let trace =
         match get "--trace" with
         | None | Some "0" -> false
         | Some "1" -> true
         | Some v -> die 2 "--trace: expected 0 or 1, got %s" v
       in
       run_one ~workload:w ~seed ~seconds ~trace
     | None, Some json ->
       only o [ "--json"; "--seed" ];
       run_all ~json ~seed
     | _ ->
       die 2
         "usage: perf.exe --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
         \       perf.exe --json FILE [--seed N]\n\
         \       perf.exe compare A.json B.json [--bench BENCHMARK.json]")
