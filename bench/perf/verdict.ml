(* The two-run comparator behind [perf.exe compare A.json B.json]: for
   every (end-to-end metric, workload) pair present in both reports,
   judge B against A with the metric's bound from BENCHMARK.json.

   - unresolved: either side's quartile spread, as a share of its
     median, is wider than the bound — unless every run of B reads
     better than every run of A, which is an improvement however noisy;
   - regress / improve: the medians differ by more than the bound;
   - agree: otherwise.

   Each scaled metric is judged a second time on its raw values
   ("raw.<name>"). Those rows do not gate: across sessions they move
   with the host's speed. They show a change that moves the scale
   itself (see calibrate.ml), such as one that trades sleeping for
   spinning.

   Failures are held to an absolute bound of zero: B regresses when
   its workload is not "ok" (a cast failed, a check failed or a run
   crashed), whatever A did. *)

module Json = Horus_obs.Json

type better = Catalog.better = Lower | Higher

type bound = { name : string; better : better; bound : float }

type summary = { median : float; q1 : float; q3 : float; values : float list }

type t = Agree | Regress | Improve | Unresolved

let to_string = function
  | Agree -> "agree"
  | Regress -> "regress"
  | Improve -> "improve"
  | Unresolved -> "unresolved"

let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median

(* Positive when [cand] is worse than [base]. *)
let worsening b ~base ~cand = match b.better with Lower -> cand -. base | Higher -> base -. cand

let relative_change b ~base ~cand =
  if base.median = 0.0 then 0.0
  else worsening b ~base:base.median ~cand:cand.median /. Float.abs base.median

let judge b ~base ~cand =
  let all_better =
    List.for_all
      (fun c -> List.for_all (fun a -> worsening b ~base:a ~cand:c < 0.0) base.values)
      cand.values
  in
  let delta = relative_change b ~base ~cand in
  if spread base > b.bound || spread cand > b.bound then
    if all_better then Improve else Unresolved
  else if delta > b.bound then Regress
  else if delta < -.b.bound then Improve
  else Agree

(* Failures are not a speed: [base_ok] and [cand_ok] say whether each
   side's workload was clean. *)
let judge_failed ~base_ok ~cand_ok =
  if not cand_ok then Regress else if not base_ok then Improve else Agree

(* --- JSON glue ------------------------------------------------------ *)

let ( let* ) = Result.bind

let field name j =
  match Json.member name j with Some v -> Ok v | None -> Error ("missing field " ^ name)

let number name j =
  let* v = field name j in
  match Json.to_float v with Some f -> Ok f | None -> Error (name ^ " is not a number")

let bounds_of_benchmark j =
  let* l = field "end_to_end" j in
  match l with
  | Json.List items ->
    List.fold_right
      (fun item acc ->
         let* acc = acc in
         let* name = field "name" item in
         let* better = field "better" item in
         let* bound = number "bound" item in
         match (name, better) with
         | Json.String name, Json.String "lower" -> Ok ({ name; better = Lower; bound } :: acc)
         | Json.String name, Json.String "higher" -> Ok ({ name; better = Higher; bound } :: acc)
         | _ -> Error "end_to_end: bad name or better")
      items (Ok [])
  | _ -> Error "end_to_end is not a list"

let summary_of_json j =
  let* median = number "median" j in
  let* q1 = number "q1" j in
  let* q3 = number "q3" j in
  let values =
    match Json.member "values" j with
    | Some (Json.List vs) -> List.filter_map Json.to_float vs
    | _ -> [ median ]
  in
  Ok { median; q1; q3; values }

type row = {
  workload : string;
  metric : string;
  bound : float;
  base : summary;
  cand : summary;
  verdict : t;
  gated : bool;  (* counts towards the command's exit status *)
  note : string;
}

let status j = match Json.member "status" j with Some (Json.String s) -> s | _ -> "failed"

let health j =
  let ratio =
    Option.value ~default:Float.nan
      (Option.bind (Json.member (fst Catalog.failed_cast_ratio) j) Json.to_float)
  in
  ({ median = ratio; q1 = ratio; q3 = ratio; values = [ ratio ] }, status j = "ok")

(* Reports are comparable only when taken with the same repetitions. *)
let same_method a b =
  List.fold_left
    (fun acc k ->
       let* () = acc in
       if Json.member k a = Json.member k b then Ok ()
       else Error ("the reports differ in " ^ k ^ "; rerun both with the same program"))
    (Ok ()) [ "reps"; "measure_s" ]

(* Rows in report order: workloads as A lists them; per workload the
   bounds' metrics, then their raw values, then failed_cast_ratio. A
   workload skipped (or missing) on either side is left out. *)
let compare ~bounds a b =
  let* () = same_method a b in
  let* wa = field "workloads" a in
  let* wb = field "workloads" b in
  match wa with
  | Json.Obj workloads ->
    Ok
      (List.concat_map
         (fun (w, ja) ->
            match Json.member w wb with
            | Some jb when status ja <> "skipped" && status jb <> "skipped" ->
              let row ~section ~prefix ~gated bd =
                match (Json.path [ section; bd.name ] ja, Json.path [ section; bd.name ] jb) with
                | Some x, Some y ->
                  (match (summary_of_json x, summary_of_json y) with
                   | Ok base, Ok cand ->
                     Some
                       { workload = w; metric = prefix ^ bd.name; bound = bd.bound; base; cand;
                         verdict = judge bd ~base ~cand; gated;
                         note = (if gated then "" else "(not gated)") }
                   | _ -> None)
                | _ -> None
              in
              let base, base_ok = health ja and cand, cand_ok = health jb in
              List.filter_map (row ~section:"end_to_end" ~prefix:"" ~gated:true) bounds
              @ List.filter_map (row ~section:"raw" ~prefix:"raw." ~gated:false) bounds
              @ [ { workload = w; metric = fst Catalog.failed_cast_ratio; bound = 0.0; base; cand;
                    verdict = judge_failed ~base_ok ~cand_ok; gated = true;
                    note =
                      (if base_ok && cand_ok then ""
                       else Printf.sprintf "(A %s, B %s)" (status ja) (status jb)) } ]
            | _ -> [])
         workloads)
  | _ -> Error "workloads is not an object"

let regressed rows = List.exists (fun r -> r.gated && r.verdict = Regress) rows

let pp_row ppf r =
  Format.fprintf ppf "%-13s %-22s %12.4g %12.4g %+8.1f%% %7.1f%% %6.0f%%  %s" r.workload
    r.metric r.base.median r.cand.median
    (if r.base.median = 0.0 then 0.0
     else 100.0 *. (r.cand.median -. r.base.median) /. Float.abs r.base.median)
    (100.0 *. Float.max (spread r.base) (spread r.cand))
    (100.0 *. r.bound)
    (if r.note = "" then to_string r.verdict else to_string r.verdict ^ " " ^ r.note)

let pp_header ppf () =
  Format.fprintf ppf "%-13s %-22s %12s %12s %9s %8s %7s  %s" "workload" "metric" "A median"
    "B median" "change" "spread" "bound" "verdict"
