(* Unit tests for the benchmark's pure parts: percentiles, the closed
   loop's window, payload checks, the delivery checker and the run
   comparator. No sockets are opened. *)

open Perf_lib
module J = Horus_obs.Json

let floats = Alcotest.(option (float 1e-9))

(* --- percentiles ------------------------------------------------------ *)

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let test_nearest_rank () =
  Alcotest.check floats "p50 of 1..100" (Some 50.0) (Stats.nearest_rank (samples 100) 0.50);
  Alcotest.check floats "p99 of 1..1000" (Some 990.0) (Stats.nearest_rank (samples 1000) 0.99);
  Alcotest.check floats "rank rounds up" (Some 34.0) (Stats.nearest_rank (samples 100) 0.333);
  Alcotest.check floats "empty" None (Stats.nearest_rank [||] 0.5)

let test_ten_beyond () =
  (* p99 of 100 samples leaves 1 beyond its rank: too thin to read. *)
  Alcotest.check floats "p99 of 100" None (Stats.nearest_rank (samples 100) 0.99);
  Alcotest.check floats "p99 of 999" None (Stats.nearest_rank (samples 999) 0.99);
  Alcotest.check floats "p99 of 1000" (Some 990.0) (Stats.nearest_rank (samples 1000) 0.99);
  Alcotest.check floats "p999 of 9999" None (Stats.nearest_rank (samples 9999) 0.999);
  Alcotest.check floats "p999 of 10000" (Some 9990.0) (Stats.nearest_rank (samples 10000) 0.999)

let test_sorted () =
  let a = [| 3.0; 1.0; 2.0 |] in
  Alcotest.(check (array (float 0.0))) "sorted copy" [| 1.0; 2.0; 3.0 |] (Stats.sorted a);
  Alcotest.(check (array (float 0.0))) "input untouched" [| 3.0; 1.0; 2.0 |] a

(* --- growable stores -------------------------------------------------- *)

let test_vec () =
  let v = Vec.create 0 in
  let n = (3 * Vec.block) + 5 in
  for i = 0 to n - 1 do
    Vec.push v (i * 7)
  done;
  Alcotest.(check int) "length" n (Vec.length v);
  Alcotest.(check int) "first" 0 (Vec.get v 0);
  Alcotest.(check int) "across a block edge" (Vec.block * 7) (Vec.get v Vec.block);
  Alcotest.(check int) "last" ((n - 1) * 7) (Vec.get v (n - 1));
  Alcotest.(check (array int)) "sub" [| 7 * (Vec.block - 1); 7 * Vec.block |]
    (Vec.sub v ~pos:(Vec.block - 1) ~len:2);
  Alcotest.(check int) "to_array" n (Array.length (Vec.to_array v));
  Alcotest.check_raises "past the end" (Invalid_argument "Vec.get") (fun () -> ignore (Vec.get v n))

let test_quartiles () =
  let q = Alcotest.(triple (float 1e-9) (float 1e-9) (float 1e-9)) in
  (* statistics.quantiles([1..10], n=4) and ([1, 2], n=4) *)
  Alcotest.check q "1..10" (2.75, 5.5, 8.25) (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check q "two values" (0.75, 1.5, 2.25) (Stats.quartiles [ 2.0; 1.0 ]);
  Alcotest.check q "one value" (7.0, 7.0, 7.0) (Stats.quartiles [ 7.0 ]);
  Alcotest.check q "three values" (1.0, 2.0, 3.0) (Stats.quartiles [ 3.0; 1.0; 2.0 ])

(* --- closed-loop window ----------------------------------------------- *)

let test_window_fifo () =
  let w = Window.create ~w:2 in
  Alcotest.(check int) "first" 0 (Window.issue w);
  Alcotest.(check int) "second" 1 (Window.issue w);
  Alcotest.(check bool) "full at W" false (Window.can_issue w);
  Window.complete w 0;
  Alcotest.(check int) "cast 2 after cast 0" 2 (Window.issue w);
  Alcotest.(check bool) "cast 3 waits for cast 1" false (Window.can_issue w);
  Alcotest.(check int) "in flight" 2 (Window.in_flight w)

let test_window_out_of_order () =
  (* Completions out of issue order (several senders under TOTAL):
     cast k+W still waits for cast k itself. *)
  let w = Window.create ~w:2 in
  ignore (Window.issue w);
  ignore (Window.issue w);
  Window.complete w 1;
  Alcotest.(check bool) "cast 1 done, cast 0 not" false (Window.can_issue w);
  Window.complete w 0;
  ignore (Window.issue w);
  ignore (Window.issue w);
  Alcotest.(check int) "issued" 4 (Window.issued w);
  Alcotest.(check int) "completed" 2 (Window.completed w);
  Window.complete w 0;
  Alcotest.(check int) "completing twice counts once" 2 (Window.completed w);
  Alcotest.(check bool) "cast 0 has left the ring" false (Window.owns_slot w 0);
  Alcotest.(check bool) "and stays complete" true (Window.is_complete w 0);
  Alcotest.(check bool) "cast 2 reuses its slot, not complete" false (Window.is_complete w 2)

let test_window_bound () =
  (* A random completion order never puts more than W in flight, and
     the ring keeps going far past its size. *)
  let rng = Random.State.make [| 7 |] in
  let w = Window.create ~w:3 in
  let pending = ref [] in
  for _ = 1 to 1000 do
    while Window.can_issue w do
      pending := Window.issue w :: !pending
    done;
    Alcotest.(check bool) "at most W in flight" true (Window.in_flight w <= 3);
    match !pending with
    | [] -> ()
    | l ->
      let k = List.nth l (Random.State.int rng (List.length l)) in
      Window.complete w k;
      pending := List.filter (( <> ) k) l
  done;
  Alcotest.(check bool) "issued past the ring" true (Window.issued w > 900);
  Alcotest.(check int) "in flight = issued - completed" (List.length !pending) (Window.in_flight w);
  Alcotest.check_raises "completing an unissued cast" (Invalid_argument "Window.complete: cast not issued")
    (fun () -> Window.complete (Window.create ~w:1) 0)

(* --- payloads --------------------------------------------------------- *)

let gen ?(size = 64) ?(senders = 3) () =
  let rng = Random.State.make [| 42 |] in
  Payload.make ~random_bytes:(fun n -> Bytes.init n (fun _ -> Char.chr (Random.State.int rng 256)))
    ~size ~senders

let read g s = Payload.read g (Bytes.of_string s) ~off:0 ~len:(String.length s)

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
  Bytes.to_string b

let test_payload () =
  List.iter
    (fun size ->
       let g = gen ~size () in
       let p = Payload.encode g 1234 in
       Alcotest.(check int) "length" size (String.length p);
       Alcotest.(check int) "intact" 1234 (read g p);
       Alcotest.(check int) "pad byte" (Payload.corrupt 1234) (read g (flip p (size - 1)));
       Alcotest.(check int) "checksum byte" (Payload.corrupt 1234) (read g (flip p 6));
       Alcotest.(check int) "sender byte" (Payload.corrupt 1234) (read g (flip p 4));
       Alcotest.(check int) "short" Payload.unreadable (read g (String.sub p 0 (size - 1)));
       Alcotest.(check int) "corrupt names its cast" 1234 (Payload.seq_of (Payload.corrupt 1234));
       Alcotest.(check int) "unreadable names none" (-1) (Payload.seq_of Payload.unreadable))
    [ 64; 8192 ];
  let g = gen () in
  Alcotest.(check bool) "pads differ between casts" true (Payload.encode g 1 <> Payload.encode g 2)

let test_checksum () =
  (* FNV-1a 32 reference values. *)
  let h s = Payload.fnv1a32 (Bytes.of_string s) 0 (String.length s) in
  Alcotest.(check int) "empty" 0x811c9dc5 (h "");
  Alcotest.(check int) "a" 0xe40c292c (h "a");
  Alcotest.(check int) "foobar" 0xbf9cf968 (h "foobar")

(* --- delivery checker ------------------------------------------------- *)

let check ?(issued = 5) logs =
  Checker.check ~issued (Array.of_list (List.map Array.of_list logs))

let clean = [ 0; 1; 2; 3; 4 ]

let report =
  Alcotest.testable Checker.pp (fun (a : Checker.report) b -> a = b)

let expect ?(undelivered = 0) ?(duplicates = 0) ?(misordered = 0) ?(corrupt = 0) ?(unknown = 0)
    failed =
  { Checker.issued = 5; failed; undelivered; duplicates; misordered; corrupt; unknown }

let test_checker_clean () =
  Alcotest.check report "clean" (expect 0) (check [ clean; clean; clean ]);
  Alcotest.(check bool) "ok" true (Checker.ok (check [ clean; clean; clean ]))

let test_checker_gap () =
  Alcotest.check report "member 2 misses cast 3, no reorder blamed" (expect ~undelivered:1 1)
    (check [ clean; clean; [ 0; 1; 2; 4 ] ]);
  Alcotest.check report "gap in the longest log's rivals only" (expect ~undelivered:2 2)
    (check [ [ 0; 1; 2 ]; clean; clean ])

let test_checker_duplicate () =
  Alcotest.check report "cast 2 twice" (expect ~duplicates:1 1)
    (check [ clean; [ 0; 1; 2; 2; 3; 4 ]; clean ])

let test_checker_reorder () =
  Alcotest.check report "member 1 swaps casts 1 and 2" (expect ~misordered:1 1)
    (check [ clean; [ 0; 2; 1; 3; 4 ]; clean ])

let test_checker_corrupt () =
  let r = check [ clean; [ 0; 1; 2; Payload.corrupt 3; 4 ]; clean ] in
  Alcotest.check report "cast 3 corrupt at member 1" (expect ~corrupt:1 1) r;
  Alcotest.(check bool) "not ok" false (Checker.ok r)

let test_checker_unknown () =
  let r = check [ clean; clean; clean @ [ 9; Payload.unreadable ] ] in
  Alcotest.check report "unknown deliveries" (expect ~unknown:2 0) r;
  Alcotest.(check bool) "not ok" false (Checker.ok r);
  Alcotest.check report "nothing delivered" { (expect ~undelivered:5 5) with issued = 5 }
    (check [ []; []; [] ])

(* --- comparator ------------------------------------------------------- *)

let s ?(spread = 0.01) median =
  { Verdict.median; q1 = median *. (1.0 -. spread); q3 = median *. (1.0 +. spread);
    values = [ median *. (1.0 -. spread); median; median *. (1.0 +. spread) ] }

let lower = { Verdict.name = "latency"; better = Verdict.Lower; bound = 0.10 }
let higher = { lower with Verdict.better = Verdict.Higher }

let verdict = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Verdict.to_string v)) ( = )

let test_judge () =
  let j b base cand = Verdict.judge b ~base ~cand in
  Alcotest.check verdict "within bound" Verdict.Agree (j lower (s 100.0) (s 105.0));
  Alcotest.check verdict "slower" Verdict.Regress (j lower (s 100.0) (s 120.0));
  Alcotest.check verdict "faster" Verdict.Improve (j lower (s 100.0) (s 80.0));
  Alcotest.check verdict "higher is better" Verdict.Regress (j higher (s 100.0) (s 80.0));
  Alcotest.check verdict "noisy base" Verdict.Unresolved (j lower (s ~spread:0.2 100.0) (s 120.0));
  Alcotest.check verdict "noisy but every run better" Verdict.Improve
    (j lower (s ~spread:0.2 100.0) (s ~spread:0.2 50.0))

(* Full reports built the way the full run builds them: from child
   results through Report.workload, then through JSON text. *)
let child ?(correct = true) ?(failed = 0) ?raw lat =
  Report.Done
    { result =
        J.Obj
          [ ("correct", J.Bool correct); ("attempted", J.Int 1000); ("failed", J.Int failed);
            ( "metrics",
              J.Obj [ ("latency_p50_us", J.Obj [ ("value", J.Float lat); ("unit", J.String "us") ]) ] ) ];
      raw = [ ("latency_p50_us", Option.value ~default:lat raw) ] }

(* Five clean repetitions within 1% of [lat]. *)
let reps ?raw lat = List.init 5 (fun i -> child ?raw (lat *. (1.0 +. (0.005 *. float_of_int (i - 2)))))

let full ?(n = 5) runs =
  let j =
    J.Obj
      [ ("reps", J.Int n); ("measure_s", J.Float 5.0);
        ( "workloads",
          J.Obj
            [ ("small", Report.workload ~why:"" ~traced:(child 1.0) runs);
              ("cross-shard", Report.workload ~why:"" ~traced:Report.Skipped []) ] ) ]
  in
  Result.get_ok (J.of_string (J.to_string j))

let bench_json =
  J.Obj
    [ ( "end_to_end",
        J.List
          [ J.Obj
              [ ("name", J.String "latency_p50_us"); ("better", J.String "lower");
                ("bound", J.Float 0.1) ] ] ) ]

let rows a b =
  let bounds = Result.get_ok (Verdict.bounds_of_benchmark bench_json) in
  Result.get_ok (Verdict.compare ~bounds a b)

let verdicts rs = List.map (fun r -> (r.Verdict.metric, Verdict.to_string r.Verdict.verdict)) rs
let pairs = Alcotest.(list (pair string string))

let test_compare () =
  Alcotest.check pairs "skipped workloads are left out"
    [ ("latency_p50_us", "agree"); ("raw.latency_p50_us", "agree"); ("failed_cast_ratio", "agree") ]
    (verdicts (rows (full (reps 100.0)) (full (reps 102.0))));
  Alcotest.(check bool) "malformed bounds" true
    (Result.is_error (Verdict.bounds_of_benchmark (J.Obj [ ("end_to_end", J.Int 3) ])));
  Alcotest.(check bool) "reports taken with other repetitions" true
    (Result.is_error
       (Verdict.compare
          ~bounds:(Result.get_ok (Verdict.bounds_of_benchmark bench_json))
          (full (reps 100.0)) (full ~n:3 (reps 100.0))))

let test_compare_failures () =
  let clean = full (reps 100.0) in
  let faster = reps 50.0 in
  let one_failing = List.tl faster @ [ child ~failed:2 50.0 ] in
  let rs = rows clean (full one_failing) in
  Alcotest.check pairs "one failing repetition out of five"
    [ ("latency_p50_us", "improve"); ("raw.latency_p50_us", "improve"); ("failed_cast_ratio", "regress") ]
    (verdicts rs);
  Alcotest.(check bool) "fails the comparison" true (Verdict.regressed rs);
  let last_verdict b = snd (List.nth (verdicts (rows clean (full b))) 2) in
  Alcotest.(check string) "a crashed repetition" "regress"
    (last_verdict (List.tl faster @ [ Report.Crashed "exited abnormally" ]));
  Alcotest.(check string) "a failed check without failed casts" "regress"
    (last_verdict (List.tl faster @ [ child ~correct:false 50.0 ]));
  Alcotest.(check string) "B fixes A's failures" "improve"
    (snd (List.nth (verdicts (rows (full one_failing) clean)) 2))

let test_compare_raw () =
  (* The scale moved but the raw time doubled: shown, not gated. *)
  let rs = rows (full (reps 100.0)) (full (reps ~raw:200.0 100.0)) in
  Alcotest.check pairs "raw regresses alone"
    [ ("latency_p50_us", "agree"); ("raw.latency_p50_us", "regress"); ("failed_cast_ratio", "agree") ]
    (verdicts rs);
  Alcotest.(check bool) "raw rows do not gate" false (Verdict.regressed rs)

(* BENCHMARK.json and the program report the same end-to-end metrics,
   in the same directions. *)
let test_benchmark_json () =
  let j =
    match J.of_string (In_channel.with_open_bin "../../../BENCHMARK.json" In_channel.input_all) with
    | Ok j -> j
    | Error e -> Alcotest.fail e
  in
  let bounds = Result.get_ok (Verdict.bounds_of_benchmark j) in
  Alcotest.(check (list string)) "names"
    (List.map (fun (n, _, _) -> n) Catalog.end_to_end)
    (List.map (fun b -> b.Verdict.name) bounds);
  List.iter2
    (fun (n, _, better) b ->
       Alcotest.(check bool) (n ^ " direction") true (better = b.Verdict.better);
       Alcotest.(check bool) (n ^ " bound") true (b.Verdict.bound > 0.0 && b.Verdict.bound <= 0.25))
    Catalog.end_to_end bounds;
  let names key =
    match J.member key j with
    | Some (J.List l) -> List.filter_map (fun m -> match J.member "name" m with Some (J.String s) -> Some s | _ -> None) l
    | _ -> []
  in
  Alcotest.(check (list string)) "per-layer names" (List.map fst Catalog.per_layer) (names "per_layer")

let () =
  Alcotest.run "perf"
    [ ( "percentile",
        [ Alcotest.test_case "nearest rank" `Quick test_nearest_rank;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond;
          Alcotest.test_case "sorted" `Quick test_sorted;
          Alcotest.test_case "quartiles" `Quick test_quartiles ] );
      ("vec", [ Alcotest.test_case "grows by blocks" `Quick test_vec ]);
      ( "window",
        [ Alcotest.test_case "fifo completions" `Quick test_window_fifo;
          Alcotest.test_case "out-of-order completions" `Quick test_window_out_of_order;
          Alcotest.test_case "never more than W" `Quick test_window_bound ] );
      ( "payload",
        [ Alcotest.test_case "encode and read" `Quick test_payload;
          Alcotest.test_case "fnv1a" `Quick test_checksum ] );
      ( "checker",
        [ Alcotest.test_case "clean" `Quick test_checker_clean;
          Alcotest.test_case "gap" `Quick test_checker_gap;
          Alcotest.test_case "duplicate" `Quick test_checker_duplicate;
          Alcotest.test_case "reorder" `Quick test_checker_reorder;
          Alcotest.test_case "checksum mismatch" `Quick test_checker_corrupt;
          Alcotest.test_case "unknown" `Quick test_checker_unknown ] );
      ( "compare",
        [ Alcotest.test_case "judge" `Quick test_judge;
          Alcotest.test_case "reports" `Quick test_compare;
          Alcotest.test_case "failures" `Quick test_compare_failures;
          Alcotest.test_case "raw values" `Quick test_compare_raw;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ] ) ]
