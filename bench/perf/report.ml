(* The full run's report for one workload, built from what each child
   process gave back: medians, quartiles and sample counts of the
   untraced repetitions (scaled, and raw under "raw"), the traced
   run's per-layer values, and the workload's health.

   Health counts every run, the traced one included. A workload is
   "ok" only when every run returned a result, every result was
   correct and no cast failed; a run that crashed is never dropped
   silently, it makes the workload "failed". *)

module J = Horus_obs.Json

type result = { result : J.t; raw : (string * float) list }

type run = Done of result | Skipped | Crashed of string

let values_of = function
  | J.Obj ms ->
    List.filter_map
      (fun (name, v) ->
         let v = match J.member "value" v with Some v -> v | None -> v in
         Option.map (fun f -> (name, f)) (J.to_float v))
      ms
  | _ -> []

let metric_values result = Option.fold ~none:[] ~some:values_of (J.member "metrics" result)

let int_field name j = Option.value ~default:0 (Option.bind (J.member name j) J.to_int)

let summary unit values =
  let q1, med, q3 = Stats.quartiles values in
  J.Obj
    [ ("unit", J.String unit); ("median", J.Float med); ("q1", J.Float q1);
      ("q3", J.Float q3); ("n", J.Int (List.length values));
      ("values", J.List (List.map (fun v -> J.Float v) values)) ]

let unit_of name = Option.value ~default:"" (Catalog.unit_of name)

(* One summary per metric in [names] that some run reported. *)
let summaries names (per_run : (string * float) list list) =
  List.filter_map
    (fun name ->
       match List.filter_map (List.assoc_opt name) per_run with
       | [] -> None
       | vs -> Some (name, summary (unit_of name) vs))
    names

let workload ~why ~traced runs =
  if List.mem Skipped (traced :: runs) then
    J.Obj [ ("status", J.String "skipped"); ("why", J.String why) ]
  else
    let results = List.filter_map (function Done d -> Some d | _ -> None) runs in
    let traced = match traced with Done d -> Some d | _ -> None in
    let all = List.map (fun d -> d.result) (results @ Option.to_list traced) in
    let crashed = List.length runs + 1 - List.length all in
    let attempted = List.fold_left (fun acc j -> acc + int_field "attempted" j) 0 all in
    let failed = List.fold_left (fun acc j -> acc + int_field "failed" j) 0 all in
    let ok =
      crashed = 0 && failed = 0
      && List.for_all (fun j -> J.member "correct" j = Some (J.Bool true)) all
    in
    let names = List.map (fun (n, _, _) -> n) Catalog.end_to_end in
    J.Obj
      [ ("status", J.String (if ok then "ok" else "failed"));
        ("why", J.String why);
        ("runs", J.Int (List.length results));
        ("crashed", J.Int crashed);
        ("attempted", J.Int attempted);
        ("failed", J.Int failed);
        ( fst Catalog.failed_cast_ratio,
          J.Float (float_of_int failed /. float_of_int (max 1 attempted)) );
        ( "end_to_end",
          J.Obj (summaries names (List.map (fun d -> metric_values d.result) results)) );
        ("raw", J.Obj (summaries Catalog.scaled (List.map (fun d -> d.raw) results)));
        ( "per_layer",
          J.Obj
            (match traced with
             | None -> []
             | Some d ->
               List.map
                 (fun (name, v) ->
                    (name, J.Obj [ ("unit", J.String (unit_of name)); ("value", J.Float v) ]))
                 (metric_values d.result)) ) ]
