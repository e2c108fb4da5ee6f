(* Metrics registry: named counters, gauges and fixed-bucket
   histograms.

   One registry per world (or per tool invocation) so that independent
   runs never share state: two same-seed simulations snapshot to
   byte-identical JSON. Instrument registration is idempotent — asking
   for an existing name returns the existing instrument — which lets
   every stack in a world accumulate into the same per-layer
   counters. *)

type counter = { c_name : string; mutable count : int }

type gauge = { g_name : string; mutable value : float }

type histogram = {
  h_name : string;
  bounds : float array;      (* strictly increasing upper bounds *)
  buckets : int array;       (* length bounds + 1; last is overflow *)
  mutable h_count : int;
  h_sum : float array;       (* one cell: a float array stores it unboxed *)
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { instruments : (string, instrument) Hashtbl.t }

let create () = { instruments = Hashtbl.create 64 }

let wrong_kind name want =
  invalid_arg (Printf.sprintf "Metrics: %s already registered as a different kind (wanted %s)" name want)

let counter t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Counter c) -> c
  | Some _ -> wrong_kind name "counter"
  | None ->
    let c = { c_name = name; count = 0 } in
    Hashtbl.replace t.instruments name (Counter c);
    c

let gauge t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Gauge g) -> g
  | Some _ -> wrong_kind name "gauge"
  | None ->
    let g = { g_name = name; value = 0.0 } in
    Hashtbl.replace t.instruments name (Gauge g);
    g

(* Power-of-ten latency buckets from 1 us to 10 s — wide enough for
   both simulated dispatch delays and wall-clock phases. *)
let default_latency_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]

let histogram ?(buckets = default_latency_buckets) t name =
  match Hashtbl.find_opt t.instruments name with
  | Some (Histogram h) -> h
  | Some _ -> wrong_kind name "histogram"
  | None ->
    let n = Array.length buckets in
    if n = 0 then invalid_arg "Metrics.histogram: no buckets";
    for i = 1 to n - 1 do
      if buckets.(i) <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing"
    done;
    let h =
      { h_name = name;
        bounds = Array.copy buckets;
        buckets = Array.make (n + 1) 0;
        h_count = 0;
        h_sum = [| 0.0 |] }
    in
    Hashtbl.replace t.instruments name (Histogram h);
    h

(* --- counter operations --- *)

let incr c = c.count <- c.count + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters only go up";
  c.count <- c.count + n

let set_counter c v = c.count <- v
(* For exporters that mirror an externally-maintained monotone total
   (e.g. the simulated network's packet counts) into the registry. *)

let count c = c.count

let counter_name c = c.c_name

(* --- gauge operations --- *)

let set g v = g.value <- v

let gauge_value g = g.value

(* --- histogram operations --- *)

(* Linear scan: bucket arrays are tiny (default 8) and the common
   case lands early. *)
let rec slot (bounds : float array) (v : float) i =
  if i >= Array.length bounds || v <= bounds.(i) then i else slot bounds v (i + 1)

(* Allocates nothing: no closure for the scan, no box for the sum. *)
let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum.(0) <- h.h_sum.(0) +. v;
  let i = slot h.bounds v 0 in
  h.buckets.(i) <- h.buckets.(i) + 1

let observations h = h.h_count

let sum h = h.h_sum.(0)

let bucket_counts h = Array.copy h.buckets

(* --- registry-wide operations --- *)

let reset t =
  Hashtbl.iter
    (fun _ inst ->
       match inst with
       | Counter c -> c.count <- 0
       | Gauge g -> g.value <- 0.0
       | Histogram h ->
         h.h_count <- 0;
         h.h_sum.(0) <- 0.0;
         Array.fill h.buckets 0 (Array.length h.buckets) 0)
    t.instruments

let sorted_instruments t =
  Hashtbl.fold (fun name inst acc -> (name, inst) :: acc) t.instruments []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Gauges that are integral at snapshot time print as ints: the common
   exporters (wire stats) are counts, and "1234" reads better than
   "1234.0". *)
let gauge_json v =
  if Float.is_integer v && Float.abs v < 1e15 then Json.Int (int_of_float v)
  else Json.Float v

let histogram_json h =
  let buckets =
    List.init
      (Array.length h.buckets)
      (fun i ->
         let le =
           if i < Array.length h.bounds then Json.Float h.bounds.(i)
           else Json.String "+Inf"
         in
         Json.Obj [ ("le", le); ("count", Json.Int h.buckets.(i)) ])
  in
  Json.Obj
    [ ("count", Json.Int h.h_count);
      ("sum", Json.Float h.h_sum.(0));
      ("buckets", Json.List buckets) ]

let to_json t =
  let counters = ref [] and gauges = ref [] and histograms = ref [] in
  List.iter
    (fun (name, inst) ->
       match inst with
       | Counter c -> counters := (name, Json.Int c.count) :: !counters
       | Gauge g -> gauges := (name, gauge_json g.value) :: !gauges
       | Histogram h -> histograms := (name, histogram_json h) :: !histograms)
    (List.rev (sorted_instruments t));
  Json.Obj
    [ ("counters", Json.Obj !counters);
      ("gauges", Json.Obj !gauges);
      ("histograms", Json.Obj !histograms) ]

let pp ppf t =
  List.iter
    (fun (name, inst) ->
       match inst with
       | Counter c -> Format.fprintf ppf "%-40s %d@." name c.count
       | Gauge g -> Format.fprintf ppf "%-40s %s@." name (Json.to_string (gauge_json g.value))
       | Histogram h ->
         Format.fprintf ppf "%-40s count=%d sum=%g@." name h.h_count h.h_sum.(0);
         Array.iteri
           (fun i n ->
              if n > 0 then
                let le =
                  if i < Array.length h.bounds then Printf.sprintf "%g" h.bounds.(i)
                  else "+Inf"
                in
                Format.fprintf ppf "%-40s   le %-8s %d@." "" le n)
           h.buckets)
    (sorted_instruments t)
