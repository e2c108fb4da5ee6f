(* Discrete-event simulation engine.

   Time is a float (seconds). Events at equal times fire in scheduling
   order (a monotonic sequence number breaks ties), which makes every
   run deterministic. The whole Horus stack — timers, network delivery,
   endpoint event queues — runs as thunks on this engine. *)

type handle = { mutable cancelled : bool }

type event = {
  time : float;
  scheduled : float;   (* [now] at the moment of scheduling *)
  seq : int;
  thunk : unit -> unit;
  handle : handle;
}

(* Instruments, present when the engine was created over a metrics
   registry. The dispatch-delay histogram is in *simulated* seconds
   (time between scheduling and execution), so it is deterministic in
   the seed like every other simulated metric. *)
type obs = {
  dispatch_delay : Horus_obs.Metrics.histogram;
  events_executed : Horus_obs.Metrics.counter;
  events_cancelled : Horus_obs.Metrics.counter;
}

(* Schedule adversary (lib/check's systematic explorer). When a
   chooser is installed, [step] gathers every live event whose time
   falls within [horizon] of the earliest pending event (at most
   [width] of them, and only once simulated time reaches [from]) and
   lets the chooser pick which fires next. This models the real
   nondeterminism of a distributed system — network and timer events
   with nearby timestamps may be observed in any order — while keeping
   each choice sequence perfectly replayable. *)
type candidate = { c_time : float; c_seq : int }

type chooser = {
  ch_horizon : float;
  ch_width : int;
  ch_from : float;
  ch_fn : now:float -> candidate array -> int;
}

type t = {
  mutable now : float;
  mutable next_seq : int;
  mutable executed : int;
  queue : event Horus_util.Heap.t;
  obs : obs option;
  mutable chooser : chooser option;
}

let compare_event a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create ?metrics () =
  let obs =
    Option.map
      (fun m ->
         { dispatch_delay = Horus_obs.Metrics.histogram m "engine.dispatch_delay_s";
           events_executed = Horus_obs.Metrics.counter m "engine.events_executed";
           events_cancelled = Horus_obs.Metrics.counter m "engine.events_cancelled" })
      metrics
  in
  { now = 0.0; next_seq = 0; executed = 0;
    queue = Horus_util.Heap.create ~compare:compare_event; obs;
    chooser = None }

let set_chooser ?(horizon = 0.002) ?(width = 4) ?(from = 0.0) t fn =
  if horizon < 0.0 then invalid_arg "Engine.set_chooser: negative horizon";
  if width < 1 then invalid_arg "Engine.set_chooser: width < 1";
  t.chooser <- Some { ch_horizon = horizon; ch_width = width; ch_from = from; ch_fn = fn }

let clear_chooser t = t.chooser <- None

let now t = t.now

let executed t = t.executed

let pending t = Horus_util.Heap.length t.queue

(* Seconds from [now] to the earliest queued event (cancelled events
   included — an early wake-up is harmless), [infinity] on an empty
   queue. Real-time drivers (lib/transport's Driver) use this to size
   their poll timeout once per idle step, so it returns a bare float
   rather than an option. *)
let until_next t ~now =
  match Horus_util.Heap.peek t.queue with
  | Some ev -> ev.time -. now
  | None -> infinity

let schedule_at t ~time thunk =
  (* Under a chooser, executing a deferred event advances [now] past
     events still in the queue; absolute times computed before the
     reordering may then be marginally in the past. Clamp instead of
     raising — the run stays deterministic either way. *)
  let time = if t.chooser <> None && time < t.now then t.now else time in
  if time < t.now then invalid_arg "Engine.schedule_at: time in the past";
  let handle = { cancelled = false } in
  Horus_util.Heap.push t.queue { time; scheduled = t.now; seq = t.next_seq; thunk; handle };
  t.next_seq <- t.next_seq + 1;
  handle

let schedule t ~delay thunk =
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.now +. delay) thunk

let cancel handle = handle.cancelled <- true

let cancelled handle = handle.cancelled

let note_cancelled t =
  match t.obs with
  | Some o -> Horus_obs.Metrics.incr o.events_cancelled
  | None -> ()

let execute t ev =
  (* [Float.max]: a chooser may fire a later event first; time never
     runs backwards. Without a chooser [ev.time >= t.now] always. *)
  t.now <- Float.max t.now ev.time;
  t.executed <- t.executed + 1;
  (match t.obs with
   | Some o ->
     Horus_obs.Metrics.incr o.events_executed;
     Horus_obs.Metrics.observe o.dispatch_delay (ev.time -. ev.scheduled)
   | None -> ());
  ev.thunk ()

(* Run one event; false when the queue is empty. *)
let step t =
  match t.chooser with
  | Some ch when
      (match Horus_util.Heap.peek t.queue with
       | Some head -> head.time >= ch.ch_from
       | None -> false) ->
    (* Gather the adversary's candidate window: live events within
       [horizon] of the earliest one, capped at [width]. Cancelled
       events are consumed (and counted) along the way. *)
    let rec collect acc =
      if List.length acc >= ch.ch_width then List.rev acc
      else
        match Horus_util.Heap.pop t.queue with
        | None -> List.rev acc
        | Some ev ->
          if ev.handle.cancelled then begin
            note_cancelled t;
            collect acc
          end
          else
            (match acc with
             | [] -> collect [ ev ]
             | first :: _ ->
               if ev.time <= first.time +. ch.ch_horizon then collect (ev :: acc)
               else begin
                 Horus_util.Heap.push t.queue ev;
                 List.rev acc
               end)
    in
    (match collect [] with
     | [] -> false
     | [ ev ] ->
       execute t ev;
       true
     | evs ->
       let arr = Array.of_list evs in
       let cands = Array.map (fun e -> { c_time = e.time; c_seq = e.seq }) arr in
       let idx = ch.ch_fn ~now:t.now cands in
       let idx = if idx < 0 || idx >= Array.length arr then 0 else idx in
       Array.iteri (fun i e -> if i <> idx then Horus_util.Heap.push t.queue e) arr;
       execute t arr.(idx);
       true)
  | Some _ | None ->
    (match Horus_util.Heap.pop t.queue with
     | None -> false
     | Some ev ->
       t.now <- ev.time;
       if ev.handle.cancelled then note_cancelled t
       else execute t ev;
       true)

exception Budget_exhausted of int

(* Run until the queue drains. [max_events] guards against protocol
   bugs that generate work forever (retransmission storms). *)
let run ?(max_events = 10_000_000) t =
  let budget = ref max_events in
  while step t do
    decr budget;
    if !budget <= 0 then raise (Budget_exhausted max_events)
  done

let run_until ?(max_events = 10_000_000) t ~time =
  let budget = ref max_events in
  let continue = ref true in
  while !continue do
    match Horus_util.Heap.peek t.queue with
    | Some ev when ev.time <= time ->
      ignore (step t);
      decr budget;
      if !budget <= 0 then raise (Budget_exhausted max_events)
    | Some _ | None ->
      continue := false
  done;
  if t.now < time then t.now <- time
