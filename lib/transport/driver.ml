(* Wall-clock driver: pumps an event engine against real time and real
   sockets.

   The simulator and the deployment share one scheduling model — the
   engine's timed event queue. Under simulation, tests run the queue
   in virtual time. Under deployment, this driver anchors engine time
   to [Unix.gettimeofday] at creation ([target] below is the engine
   time that "now" corresponds to) and alternately

     - drains every backend's socket ([poll]), which feeds received
       datagrams into the stacks, and
     - runs all engine events that have come due ([Engine.run_until]),
       which fires the stacks' retransmit/heartbeat timers,

   then flushes each backend, so sends staged by a batched backend
   during the pump leave in one syscall.

   Between rounds it sleeps on the backends' file descriptors — via
   the poll(2) stub, so a process hosting more than FD_SETSIZE sockets
   still works, with [Unix.select] as the portable fallback — waking
   on the first datagram or the next timer, whichever comes first; the
   process is idle when the network is. Backends without an fd
   (loopback) are covered by [max_tick], a cap on any single sleep.

   A sharded deployment runs one driver per shard (see {!Shard}) over
   the shard's [Shard.bypass] backend, whose [poll] drains the
   inter-shard mailboxes along with the socket. Mailbox posts cannot
   wake a driver sleeping in poll(2), so sharded drivers run with a
   small [max_tick]. *)

type t = {
  engine : Horus_sim.Engine.t;
  backends : Backend.t list;
  fds : Unix.file_descr array;
  shards : int;
  t0_wall : float;
  t0_engine : float;
  max_tick : float;
  min_sleep : float;
}

(* The sleep for one idle step, as a pure function so the clamp is
   unit-testable. [until_timer] is how far away the next engine event
   is; when it is zero or in the past (events scheduled behind the
   wall clock, as a heavy chaos delay queue can produce), the sleep is
   clamped up to [min_sleep] — a 0-timeout wait degenerates into a
   busy spin. The caller's [max_wait] still caps from above (and may
   legitimately force 0: "don't sleep at all"). *)
let sleep_for ?max_wait ~max_tick ~min_sleep ~until_timer () =
  let w = Float.min max_tick (Float.max min_sleep until_timer) in
  match max_wait with Some m -> Float.min w (Float.max 0.0 m) | None -> w

let create ?(max_tick = Defaults.max_tick) ?(min_sleep = Defaults.min_sleep)
    ?(shards = 1) engine backends =
  if max_tick <= 0.0 then invalid_arg "Driver.create: max_tick must be positive";
  if min_sleep < 0.0 || min_sleep > max_tick then
    invalid_arg "Driver.create: min_sleep must be within [0, max_tick]";
  if shards < 1 then invalid_arg "Driver.create: shards must be >= 1";
  { engine;
    backends;
    fds =
      Array.of_list
        (List.filter_map (fun (b : Backend.t) -> b.Backend.fd) backends);
    shards;
    t0_wall = Unix.gettimeofday ();
    t0_engine = Horus_sim.Engine.now engine;
    max_tick;
    min_sleep }

let shards t = t.shards

(* Engine time corresponding to this wall-clock instant. *)
let target t = t.t0_engine +. (Unix.gettimeofday () -. t.t0_wall)

let now = target

let pump t =
  let received =
    List.fold_left (fun n (b : Backend.t) -> n + b.Backend.poll ()) 0 t.backends
  in
  let before = Horus_sim.Engine.executed t.engine in
  let due = target t in
  if due > Horus_sim.Engine.now t.engine then
    Horus_sim.Engine.run_until t.engine ~time:due;
  (* Everything this pump staged — replies to received frames, timer
     retransmits — goes to the wire in one batch per backend. *)
  List.iter Backend.flush t.backends;
  received + (Horus_sim.Engine.executed t.engine - before)

(* Idle wait: poll(2) when the stub works (no FD_SETSIZE ceiling —
   a process can host thousands of sockets), select otherwise. *)
let wait_readable t wait =
  if Sysops.poll_available () then begin
    (* ceil to a millisecond so a positive wait never becomes a
       0-timeout busy spin. *)
    let ms = max 1 (int_of_float (Float.ceil (wait *. 1000.0))) in
    match Sysops.poll_in t.fds ~timeout_ms:ms with
    | Sysops.Got _ | Sysops.Would_block | Sysops.Refused | Sysops.Os_error -> ()
    | Sysops.Unsupported ->
      (match Unix.select (Array.to_list t.fds) [] [] wait with
       | _ -> ()
       | exception Unix.Unix_error (EINTR, _, _) -> ())
  end
  else
    match Unix.select (Array.to_list t.fds) [] [] wait with
    | _ -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> ()

let step ?max_wait t =
  let worked = pump t in
  if worked > 0 then worked
  else begin
    (* Nothing due: sleep until the next timer, the sleep cap, or the
       caller's bound — or until a socket becomes readable. *)
    let until_timer =
      match Horus_sim.Engine.next_time t.engine with
      | Some tm -> tm -. target t
      | None -> t.max_tick
    in
    let wait =
      sleep_for ?max_wait ~max_tick:t.max_tick ~min_sleep:t.min_sleep ~until_timer ()
    in
    if wait > 0.0 then wait_readable t wait;
    pump t
  end

let run_until ?(timeout = 30.0) t pred =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    if pred () then true
    else begin
      let left = deadline -. Unix.gettimeofday () in
      if left <= 0.0 then pred ()
      else begin
        ignore (step ~max_wait:left t);
        loop ()
      end
    end
  in
  loop ()

let run_for t ~duration =
  let stop = Unix.gettimeofday () +. duration in
  while Unix.gettimeofday () < stop do
    ignore (step ~max_wait:(stop -. Unix.gettimeofday ()) t)
  done
