(* Self-time attribution for the traced run.

   A segment is one timed call: a layer's handle_down or handle_up, a
   backend's send, poll or rx callback, Group.cast, Driver.step.
   Segments nest (step > poll > rx > layer > send), and each one is
   charged only the time and minor-heap words its nested segments do
   not cover — its self time. Stack dispatches one queue item at a
   time, so a layer handler's self time is that layer's own work;
   events it emits run later, as their own segments.

   One tracer per domain: shards run concurrently, so the layer
   wrappers pick up the constructing domain's tracer. *)

let layers = Array.of_list Perf_lib.Catalog.layer_names
let nlayers = Array.length layers

let down i = i
let up i = nlayers + i
let cast = 2 * nlayers
let rx = cast + 1
let send = cast + 2
let poll = cast + 3
let step = cast + 4
let segments = cast + 5

let max_depth = 64

type t = {
  mutable depth : int;
  start_ns : int array;        (* per depth *)
  start_words : float array;
  child_ns : int array;        (* per depth: time nested segments covered *)
  child_words : float array;
  self_ns : int array;         (* per segment *)
  incl_ns : int array;
  self_words : float array;
  calls : int array;
  mutable outer_ns : int;      (* time covered by outermost segments *)
}

let create () =
  { depth = 0;
    start_ns = Array.make max_depth 0;
    start_words = Array.make max_depth 0.0;
    child_ns = Array.make max_depth 0;
    child_words = Array.make max_depth 0.0;
    self_ns = Array.make segments 0;
    incl_ns = Array.make segments 0;
    self_words = Array.make segments 0.0;
    calls = Array.make segments 0;
    outer_ns = 0 }

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let enter t =
  let d = t.depth + 1 in
  t.depth <- d;
  t.child_ns.(d) <- 0;
  t.child_words.(d) <- 0.0;
  t.start_words.(d) <- Gc.minor_words ();
  t.start_ns.(d) <- now_ns ()

let leave t seg =
  let stop = now_ns () in
  let words = Gc.minor_words () in
  let d = t.depth in
  let el = stop - t.start_ns.(d) in
  let w = words -. t.start_words.(d) in
  t.self_ns.(seg) <- t.self_ns.(seg) + el - t.child_ns.(d);
  t.incl_ns.(seg) <- t.incl_ns.(seg) + el;
  t.self_words.(seg) <- t.self_words.(seg) +. w -. t.child_words.(d);
  t.calls.(seg) <- t.calls.(seg) + 1;
  t.depth <- d - 1;
  if d = 1 then t.outer_ns <- t.outer_ns + el
  else begin
    t.child_ns.(d - 1) <- t.child_ns.(d - 1) + el;
    t.child_words.(d - 1) <- t.child_words.(d - 1) +. w
  end

let time t seg f x =
  enter t;
  match f x with
  | r -> leave t seg; r
  | exception e -> leave t seg; raise e

(* Zero the totals at the start of the measured window; only legal
   between outermost segments. *)
let reset t =
  assert (t.depth = 0);
  Array.fill t.self_ns 0 segments 0;
  Array.fill t.incl_ns 0 segments 0;
  Array.fill t.self_words 0 segments 0.0;
  Array.fill t.calls 0 segments 0;
  t.outer_ns <- 0

(* Totals are summed across domains for the report. *)
let add ~into t =
  for s = 0 to segments - 1 do
    into.self_ns.(s) <- into.self_ns.(s) + t.self_ns.(s);
    into.incl_ns.(s) <- into.incl_ns.(s) + t.incl_ns.(s);
    into.self_words.(s) <- into.self_words.(s) +. t.self_words.(s);
    into.calls.(s) <- into.calls.(s) + t.calls.(s)
  done;
  into.outer_ns <- into.outer_ns + t.outer_ns

let copy t =
  let c = create () in
  add ~into:c t;
  c

let key = Domain.DLS.new_key create
let current () = Domain.DLS.get key

let layer_index name =
  let rec find i = if i >= nlayers then None else if layers.(i) = name then Some i else find (i + 1) in
  find 0

(* Re-register every layer of the Section-7 stack under its own name
   with a constructor whose instances time their handlers. Must run
   before any endpoint of the traced run exists, on the main domain
   (the registry is global and read concurrently afterwards). *)
let instrument_registry () =
  let module R = Horus.Registry in
  let module L = Horus_hcpi.Layer in
  let entries = R.all () in
  R.clear ();
  List.iter
    (fun (e : R.entry) ->
       let ctor =
         match layer_index e.R.name with
         | None -> e.R.ctor
         | Some i ->
           fun params ->
             let make = e.R.ctor params in
             fun env ->
               let inst = make env in
               let tr = current () in
               { inst with
                 L.handle_down = (fun ev -> time tr (down i) inst.L.handle_down ev);
                 handle_up = (fun ev -> time tr (up i) inst.L.handle_up ev) }
       in
       R.register ~name:e.R.name ~protocol_type:e.R.protocol_type
         ~description:e.R.description ctor)
    entries

(* Time a backend's send, poll and installed rx callback. [on_send]
   and [on_rx] observe each datagram (the cross-shard run matches
   mailbox posts to their arrival). *)
let wrap_backend ?(on_send = fun ~dest:_ -> ()) ?(on_rx = fun () -> ()) t
    (b : Horus.Transport.Backend.t) =
  let module B = Horus.Transport.Backend in
  { b with
    B.send =
      (fun ~dest payload ->
         on_send ~dest;
         enter t;
         (match b.B.send ~dest payload with
          | () -> leave t send
          | exception e -> leave t send; raise e));
    set_rx =
      (fun f ->
         b.B.set_rx (fun ~src frame ->
             on_rx ();
             enter t;
             match f ~src frame with
             | () -> leave t rx
             | exception e -> leave t rx; raise e));
    poll = (fun () -> time t poll b.B.poll ()) }
