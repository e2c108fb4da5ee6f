(* The closed-loop cast workloads over real UDP on 127.0.0.1.

   A segment is one set-up (or several, to time set-up), a warm-up and
   a measured window. The sender keeps [window] casts in flight,
   issuing cast k+W once cast k has been delivered at every member.

   The measured window is cut into chunks. Each chunk loads the group
   for [chunk_s], then stops issuing and drains; between chunks, with
   nothing in flight, the host-speed kernel ({!Calibrate}) runs. Each
   chunk's time-based numbers are scaled by the kernel's speed around
   it, so the results read as on the nominal host however busy the
   shared machine was. A chunk that cannot drain within [drain_s]
   ends the measurement and fails the run.

   Every member logs what it delivered; the logs are checked once the
   load has stopped. Timestamps are monotonic nanoseconds relative to
   the segment's base, offset by one so that 0 means "not yet". Logs
   and latencies go into {!Vec}s, which grow a block at a time, so a
   run has no cap on its cast count and the bench's own allocation
   stays far below the stack's. *)

open Horus
open Perf_lib
module T = Transport
module B = T.Backend
module M = Metrics

let stack = "TOTAL:MBRSHIP:FRAG:NAK:COM"
let join_timeout = 10.0
let drain_s = 5.0
let chunk_s = 0.025
let calibration_rounds = 7
let steal_window = 10

type spec = {
  name : string;
  members : int;
  senders : int;   (* members 0 .. senders-1 cast, round-robin *)
  size : int;      (* payload bytes *)
  window : int;
  sharded : bool;  (* one member per Shard.run domain *)
  why : string;
}

let specs =
  [ { name = "small"; members = 3; senders = 1; size = 64; window = 8; sharded = false;
      why = "64 B casts, W=8: per-cast layer and dispatch cost dominates" };
    { name = "large"; members = 3; senders = 1; size = 8192; window = 8; sharded = false;
      why = "8 KiB casts, W=8: FRAG splits into 9 fragments; copying, reassembly, NAK \
             buffering dominate" };
    { name = "pingpong"; members = 3; senders = 1; size = 64; window = 1; sharded = false;
      why = "64 B casts, W=1: latency of an unloaded system; batching or deferral shows \
             here" };
    { name = "multi-sender"; members = 3; senders = 3; size = 64; window = 8;
      sharded = false;
      why = "all 3 members send round-robin, W=8: TOTAL's token rotates, acks flow from \
             every member" };
    { name = "cross-shard"; members = 2; senders = 1; size = 64; window = 8; sharded = true;
      why = "2 Shard.run domains, 1 member each: every frame crosses an SPSC mailbox" } ]

let find name = List.find_opt (fun s -> s.name = name) specs

type opts = {
  fastpath : bool;      (* Group.join ~fastpath *)
  batch : int;          (* Udp.create ~batch *)
  traced : bool;
  setups : int;         (* set-ups timed; the last one carries the load *)
  warm_s : float;
  measure_s : float;
}

(* --- counters, sampled at chunk edges --------------------------------- *)

(* A sample is a float array indexed by these. The first seven are
   process-wide and read on the sender's domain only; the rest are
   domain-local and summed over domains. *)
module C = struct
  let ns = 0
  let cpu = 1          (* process user+sys seconds *)
  let steal = 2        (* seconds the hypervisor took from the machine *)
  let minor_gcs = 3
  let major_gcs = 4
  let posted = 5       (* mailbox posts and drains *)
  let drained = 6
  let words = 7        (* this domain's minor words *)
  let sent = 8
  let delivered = 9
  let bytes = 10       (* UDP payload bytes handed to the backends *)
  let bad_frames = 11
  let batched_syscalls = 12
  let crossings = 13   (* hcpi.down.* + hcpi.up.* *)
  let retransmits = 14
  let events = 15
  let fused = 16
  let unfused = 17
  let n = 18

  let zero () = Array.make n 0.0
  let diff a b = Array.map2 (fun x y -> y -. x) a b
  let add a b = Array.map2 ( +. ) a b
  let merge ~sender o = Array.mapi (fun i v -> if i < words then v else v +. o.(i)) sender
end

let now_ns = Tracer.now_ns

let sample ?fabric ~world ~(backends : B.t array) () =
  let m = World.metrics world in
  let count name = float_of_int (M.count (M.counter m name)) in
  let sum f = float_of_int (Array.fold_left (fun acc (b : B.t) -> acc + f b) 0 backends) in
  let times = Unix.times () in
  let gc = Gc.quick_stat () in
  let s = C.zero () in
  s.(C.ns) <- float_of_int (now_ns ());
  s.(C.cpu) <- times.Unix.tms_utime +. times.Unix.tms_stime;
  s.(C.steal) <- Calibrate.steal_s ();
  s.(C.minor_gcs) <- float_of_int gc.Gc.minor_collections;
  s.(C.major_gcs) <- float_of_int gc.Gc.major_collections;
  (match fabric with
   | None -> ()
   | Some f ->
     let sm = M.create () in
     T.Shard.export_metrics f sm;
     s.(C.posted) <- float_of_int (M.count (M.counter sm "shard.posted"));
     s.(C.drained) <- float_of_int (M.count (M.counter sm "shard.drained")));
  s.(C.words) <- Gc.minor_words ();
  s.(C.sent) <- sum (fun b -> b.B.stats.B.sent);
  s.(C.delivered) <- sum (fun b -> b.B.stats.B.delivered);
  s.(C.bytes) <- sum (fun b -> b.B.stats.B.bytes_sent);
  s.(C.bad_frames) <- sum (fun b -> b.B.stats.B.bad_frame);
  s.(C.batched_syscalls) <-
    sum (fun b ->
        match b.B.batch with
        | Some bt -> bt.B.bt_tx_syscalls + bt.B.bt_rx_syscalls
        | None -> 0);
  s.(C.crossings) <-
    Array.fold_left
      (fun acc l -> acc +. count ("hcpi.down." ^ l) +. count ("hcpi.up." ^ l))
      0.0 Tracer.layers;
  s.(C.retransmits) <- count "nak.retransmits";
  s.(C.events) <- count "engine.events_executed";
  s.(C.fused) <- count "fastpath.send_fused";
  s.(C.unfused) <- count "fastpath.send_fallback";
  s

(* --- delivery logs and the sender's book ----------------------------- *)

(* One member's deliveries, in order: what Payload.read made of each,
   and (for a member on another domain) when it arrived. [published]
   is the cross-domain hand-off: entries below it are complete. *)
type log = {
  entries : int Vec.t;
  at : int Vec.t;
  remote : bool;
  published : int Atomic.t;
}

let make_log ~remote =
  { entries = Vec.create 0; at = Vec.create 0; remote; published = Atomic.make 0 }

let append log e t =
  Vec.push log.entries e;
  if log.remote then Vec.push log.at t;
  Atomic.set log.published (Vec.length log.entries)

(* Lives on the sender's domain: the window and, per ring slot, the
   issue time, last delivery and delivery count of the cast holding
   it. A cast's latency is recorded when it completes. *)
type book = {
  members : int;
  window : Window.t;
  start : int array;
  finish : int array;        (* delivered at the last member *)
  count : int array;         (* members that delivered the cast *)
  latencies : int Vec.t;     (* raw ns, in completion order *)
}

let make_book ~members ~w =
  { members;
    window = Window.create ~w;
    start = Array.make w 0;
    finish = Array.make w 0;
    count = Array.make w 0;
    latencies = Vec.create 0 }

let issue_cast book =
  let k = Window.issue book.window in
  let i = Window.slot book.window k in
  book.finish.(i) <- 0;
  book.count.(i) <- 0;
  k

let started book k t = book.start.(Window.slot book.window k) <- t

(* Deliveries of a cast that has left its slot are duplicates; the
   checker counts those from the logs. *)
let note book e t =
  let s = Payload.seq_of e in
  if s >= 0 && Window.owns_slot book.window s then begin
    let i = Window.slot book.window s in
    let c = book.count.(i) + 1 in
    book.count.(i) <- c;
    if t > book.finish.(i) then book.finish.(i) <- t;
    if c = book.members then begin
      Window.complete book.window s;
      Vec.push book.latencies (book.finish.(i) - book.start.(i))
    end
  end

(* --- set-up ---------------------------------------------------------- *)

let full_view members g =
  match Group.view g with Some v -> View.size v = members | None -> false

let view_key g =
  match Group.view g with
  | Some v -> Some (View.ltime v, List.map Addr.endpoint_id (View.members v))
  | None -> None

(* [n] sockets on distinct ports. Udp.create sets SO_REUSEADDR, with
   which Linux may bind port 0 to a port another such socket already
   holds; two members sharing it would talk to themselves and the
   group would never form. A socket that lands on a taken port is
   closed and opened again. *)
let udp_sockets opts n =
  let rec go acc =
    if List.length acc = n then List.rev acc
    else begin
      let b = T.Udp.create ~batch:opts.batch ~bind:"127.0.0.1:0" () in
      if List.exists (fun (a : B.t) -> a.B.local_addr = b.B.local_addr) acc then begin
        b.B.close ();
        go acc
      end
      else go (b :: acc)
    end
  in
  go []

(* Join [ranks] (all sharing [world]) to one group: rank 0 founds it,
   the others merge through it. [on_cast r] handles member r's cast
   deliveries. *)
let join_members ~opts ~link ~world ~peers ~backends ~ranks ~on_cast =
  let g = World.fresh_group_addr world in
  List.map
    (fun (r, backend) ->
       let ep = Transport_link.endpoint link ~backend ~peers ~rank:r ~spec:stack in
       let contact = if r = 0 then None else Some (Addr.endpoint 0) in
       Group.join ?contact ~record:false ~fastpath:opts.fastpath
         ~on_up:(function
           | Event.U_cast (_, m, _) ->
             let buf, off, len = Msg.view m in
             on_cast r buf off len
           | _ -> ())
         ep g)
    (List.combine ranks backends)

let step ~tracer driver =
  match tracer with
  | None -> ignore (T.Driver.step driver)
  | Some tr -> ignore (Tracer.time tr Tracer.step (fun d -> T.Driver.step d) driver)

(* --- the sender's measured window ------------------------------------ *)

type window = {
  delta : float array;     (* summed chunk deltas, raw *)
  norm_s : float;          (* load seconds scaled to the nominal host *)
  norm_cpu_s : float;
  lat_raw : float array;   (* us, one per cast completed in a chunk *)
  lat_norm : float array;  (* the same, scaled *)
  kernel_speed : float;    (* mean nominal / kernel time *)
  stalled : bool;          (* a chunk failed to drain *)
}

(* Drive the closed loop: warm up, then [measure_s] of load. [pump]
   advances the protocol (a driver step, plus the cross-shard scan);
   [on_start]/[on_stop] bracket the measurement; [domains] share the
   process's CPU time.

   The load runs in [chunk_s] chunks, each ended by a drain, so no cast
   is in flight between chunks. There one round of the host-speed
   kernel runs, and then the loop idles, unmeasured, for a seeded
   random fraction of a shard tick: the cross-shard domains tick
   independently, so each chunk starts at a fresh relative phase and
   the percentiles average over hundreds of phases instead of
   depending on one arbitrary alignment.

   A chunk's kernel factor kf is nominal / the median of the
   [calibration_rounds] kernel rounds around it. Its wall time is
   split, per domain, into CPU time, hypervisor steal and idle (a
   domain sleeping on the driver's tick). On the nominal host the CPU
   time would take kf times as long and the steal would not happen,
   so the chunk's wall time and latencies are scaled by
   f = (wall - steal/D + (cpu/D) (kf - 1)) / wall, and its CPU time by
   kf. A CPU-bound chunk without steal gets f = kf; a chunk whose
   domains mostly sleep (cross-shard) gets f close to 1. So f depends
   on the code's own busy share: a change that trades sleeping for
   spinning is scaled differently from its parent on the same host,
   which is why the raw values are reported beside the scaled ones. *)
let measure ~book ~gen ~opts ~base ~tracer ~sender_group ~pump ~snap ~on_start ~on_stop
    ~domains ~rng =
  let rel () = now_ns () - base in
  let issue () =
    while Window.can_issue book.window do
      let k = issue_cast book in
      let g = sender_group (Payload.sender_of gen k) in
      let p = Payload.encode gen k in
      started book k (rel () + 1);
      match tracer with
      | None -> Group.cast g p
      | Some tr -> Tracer.time tr Tracer.cast (Group.cast g) p
    done
  in
  let load ~for_ns =
    let stop = rel () + for_ns in
    while rel () < stop do
      issue ();
      pump ()
    done
  in
  let drain () =
    let deadline = rel () + int_of_float (drain_s *. 1e9) in
    while Window.in_flight book.window > 0 && rel () < deadline do
      pump ()
    done;
    Window.in_flight book.window = 0
  in
  load ~for_ns:(int_of_float (opts.warm_s *. 1e9));
  let stalled = ref (not (drain ())) in
  let cal = Calibrate.create () in
  let chunks = max 1 (int_of_float (Float.round (opts.measure_s /. chunk_s))) in
  let chunk_ns = int_of_float (opts.measure_s /. float_of_int chunks *. 1e9) in
  (* kernel.(c) is the round just before chunk c; kernel.(chunks) ends.
     Chunk c's casts complete inside it (it drains), so their
     latencies are book.latencies.(l0 .. l1-1). *)
  let kernel = Array.make (chunks + 1) 0.0 in
  let measured = Array.make chunks (C.zero (), 0, 0) in
  kernel.(0) <- Calibrate.measure cal;
  on_start ();
  let n = ref 0 in
  while !n < chunks && not !stalled do
    Unix.sleepf (Random.State.float rng T.Defaults.shard_tick);
    let s0 = snap () and l0 = Vec.length book.latencies in
    load ~for_ns:chunk_ns;
    stalled := not (drain ());
    let s1 = snap () and l1 = Vec.length book.latencies in
    measured.(!n) <- (C.diff s0 s1, l0, l1);
    incr n;
    kernel.(!n) <- Calibrate.measure cal
  done;
  on_stop ();
  Calibrate.close cal;
  let total = Array.fold_left (fun acc (_, l0, l1) -> acc + l1 - l0) 0 (Array.sub measured 0 !n) in
  let lat_raw = Array.make total 0.0 and lat_norm = Array.make total 0.0 in
  let nlat = ref 0 in
  let delta = ref (C.zero ()) and norm_s = ref 0.0 and norm_cpu_s = ref 0.0 in
  let half = calibration_rounds / 2 in
  let around c = max 0 (min (c - half + 1) (!n + 1 - calibration_rounds)) in
  let d_of c = let d, _, _ = measured.(c) in d in
  let speeds = ref 0.0 in
  for c = 0 to !n - 1 do
    let lo = around c in
    let kf =
      Calibrate.nominal_ns
      /. Stats.median (List.init (min calibration_rounds (!n + 1)) (fun i -> kernel.(lo + i)))
    in
    speeds := !speeds +. kf;
    (* Steal is counted in 10 ms ticks: spread it over the chunks
       around this one in proportion to their wall time. *)
    let steal_share =
      let lo = max 0 (c - steal_window) and hi = min (!n - 1) (c + steal_window) in
      let sum i = List.fold_left ( +. ) 0.0 (List.init (hi - lo + 1) (fun j -> (d_of (lo + j)).(i))) in
      sum C.steal /. (sum C.ns /. 1e9)
    in
    let d, l0, l1 = measured.(c) in
    let wall = d.(C.ns) /. 1e9 and dn = float_of_int domains in
    let busy = d.(C.cpu) /. dn in
    let stolen = Float.max 0.0 (Float.min (steal_share *. wall /. dn) (wall -. busy)) in
    let f = (wall -. stolen +. (busy *. (kf -. 1.0))) /. wall in
    delta := C.add !delta d;
    norm_s := !norm_s +. (wall *. f);
    norm_cpu_s := !norm_cpu_s +. (d.(C.cpu) *. kf);
    for i = l0 to l1 - 1 do
      let l = float_of_int (Vec.get book.latencies i) /. 1e3 in
      lat_raw.(!nlat) <- l;
      lat_norm.(!nlat) <- l *. f;
      incr nlat
    done
  done;
  { delta = !delta; norm_s = !norm_s; norm_cpu_s = !norm_cpu_s; lat_raw; lat_norm;
    kernel_speed = (if !n > 0 then !speeds /. float_of_int !n else 1.0);
    stalled = !stalled }

(* --- results -------------------------------------------------------- *)

type outcome = {
  spec : spec;
  opts : opts;
  setups_s : float list;
  issued : int;
  completed : int;              (* casts delivered everywhere in a chunk *)
  load_s : float;               (* measured seconds, raw *)
  norm_s : float;               (* the same, scaled to the nominal host *)
  norm_cpu_s : float;
  latencies_us : float array;   (* sorted, scaled to the nominal host *)
  raw_latencies_us : float array;
  kernel_speed : float;         (* mean nominal / kernel time *)
  domain_ns : float;            (* measured ns summed over domains, each its own span *)
  delta : float array;          (* counter deltas over the chunks, summed over domains *)
  report : Checker.report;
  views_agree : bool;
  stalled : bool;
  tracer : Tracer.t option;     (* summed over domains *)
  hops_us : float array;        (* sorted; cross-shard only *)
  shard_overflow : int;         (* shed posts; hop matching assumes none *)
  shard_hwm : float;
}

(* Nominal-host seconds per raw second over the measured chunks. *)
let speed o = if o.load_s = 0.0 then 1.0 else o.norm_s /. o.load_s

let ok o =
  Checker.ok o.report && o.views_agree && o.delta.(C.bad_frames) = 0.0 && not o.stalled

let outcome spec opts ~setups_s ~book ~logs ~(w : window) ~delta ~domain_ns ~views_agree
    ~tracer ~hops_us ~shard_overflow ~shard_hwm =
  let issued = Window.issued book.window in
  { spec; opts; setups_s; issued; completed = Array.length w.lat_raw;
    load_s = w.delta.(C.ns) /. 1e9; norm_s = w.norm_s; norm_cpu_s = w.norm_cpu_s;
    kernel_speed = w.kernel_speed; domain_ns;
    latencies_us = Stats.sorted w.lat_norm;
    raw_latencies_us = Stats.sorted w.lat_raw;
    delta;
    report = Checker.check ~issued (Array.map (fun l -> Vec.to_array l.entries) logs);
    views_agree; stalled = w.stalled;
    tracer; hops_us; shard_overflow; shard_hwm }

(* Set-up times beyond the one that carries the load: [opts.setups - 1]
   at least, and more while [setup_budget_s] lasts, so a cheap set-up
   (cross-shard's takes milliseconds) gets a steady median. *)
let setup_budget_s = 2.0
let max_setups = 200

let extra_setups opts f =
  if opts.setups <= 1 then []
  else begin
    let t0 = now_ns () in
    let rec go acc n =
      let spent = float_of_int (now_ns () - t0) /. 1e9 in
      if n >= opts.setups - 1 && (spent >= setup_budget_s || n >= max_setups - 1) then acc
      else go (f () :: acc) (n + 1)
    in
    go [] 0
  end

(* --- single domain: every member on one driver --------------------- *)

let run_local (spec : spec) (opts : opts) ~seed ~gen =
  let tracer = if opts.traced then Some (Tracer.current ()) else None in
  let setup () =
    let world = World.create ~seed () in
    let link = Transport_link.create world in
    let raw = udp_sockets opts spec.members in
    let backends =
      match tracer with None -> raw | Some tr -> List.map (Tracer.wrap_backend tr) raw
    in
    let peers = T.Peers.create () in
    List.iteri (fun r (b : B.t) -> T.Peers.add peers ~rank:r ~addr:b.B.local_addr) raw;
    let driver = T.Driver.create (World.engine world) backends in
    let on_cast = ref (fun _ _ _ _ -> ()) in
    let t0 = now_ns () in
    let groups =
      join_members ~opts ~link ~world ~peers ~backends ~ranks:(List.init spec.members Fun.id)
        ~on_cast:(fun r buf off len -> !on_cast r buf off len)
      |> Array.of_list
    in
    if not (T.Driver.run_until ~timeout:join_timeout driver (fun () ->
        Array.for_all (full_view spec.members) groups))
    then failwith (spec.name ^ ": group did not form");
    let setup_s = float_of_int (now_ns () - t0) /. 1e9 in
    (world, Array.of_list raw, driver, groups, on_cast, setup_s)
  in
  let setups =
    extra_setups opts (fun () ->
        let _, raw, _, _, _, s = setup () in
        Array.iter (fun (b : B.t) -> b.B.close ()) raw;
        s)
  in
  let book = make_book ~members:spec.members ~w:spec.window in
  let logs = Array.init spec.members (fun _ -> make_log ~remote:false) in
  let world, raw, driver, groups, on_cast, s = setup () in
  let base = now_ns () in
  (on_cast :=
     fun r buf off len ->
       let e = Payload.read gen buf ~off ~len in
       let t = now_ns () - base + 1 in
       append logs.(r) e t;
       note book e t);
  let trace_totals = ref None in
  let w =
    measure ~book ~gen ~opts ~base ~tracer
      ~sender_group:(fun i -> groups.(i))
      ~pump:(fun () -> step ~tracer driver)
      ~snap:(sample ~world ~backends:raw)
      ~on_start:(fun () -> Option.iter Tracer.reset tracer)
      ~on_stop:(fun () -> trace_totals := Option.map Tracer.copy tracer)
      ~domains:1 ~rng:(Random.State.make [| seed |])
  in
  let issued = Window.issued book.window in
  ignore
    (T.Driver.run_until ~timeout:drain_s driver (fun () -> Window.completed book.window >= issued));
  let views = Array.map view_key groups in
  let views_agree =
    Array.for_all (fun v -> v = views.(0)) views && Array.for_all (full_view spec.members) groups
  in
  let delta = Array.copy w.delta in
  delta.(C.bad_frames) <- (sample ~world ~backends:raw ()).(C.bad_frames);
  Array.iter (fun (b : B.t) -> b.B.close ()) raw;
  outcome spec opts ~setups_s:(s :: setups) ~book ~logs ~w ~delta ~domain_ns:w.delta.(C.ns)
    ~views_agree
    ~tracer:!trace_totals ~hops_us:[||] ~shard_overflow:0 ~shard_hwm:0.0

(* --- cross-shard: one member per domain, mailboxes between them ----- *)

(* Post timestamps for one direction of the mailbox pair, matched to
   arrivals in FIFO order (valid while no post was shed). *)
module Hops = struct
  let size = 1 lsl 16

  type t = { ts : int array; produced : int Atomic.t; mutable consumed : int }

  let create () = { ts = Array.make size 0; produced = Atomic.make 0; consumed = 0 }

  let post t now =
    let p = Atomic.get t.produced in
    t.ts.(p land (size - 1)) <- now;
    Atomic.set t.produced (p + 1)

  let arrive t now =
    if t.consumed < Atomic.get t.produced then begin
      let sent = t.ts.(t.consumed land (size - 1)) in
      t.consumed <- t.consumed + 1;
      now - sent
    end
    else -1
end

type shard_result = {
  sr_tracer : Tracer.t option;
  sr_window : window option;    (* the sender's *)
  sr_delta : float array;       (* domain-local counters over the measurement *)
  sr_view : (int * int list) option;
  sr_full : bool;
  sr_hops : float array;
  sr_setup : float;
}

let run_sharded (spec : spec) (opts : opts) ~seed ~gen =
  let shards = spec.members in
  (* One Shard.run: set-up only, or set-up plus the measured load. *)
  let one ~full =
    let backends = Array.of_list (udp_sockets opts shards) in
    let owner = Hashtbl.create 4 in
    Array.iteri (fun i (b : B.t) -> Hashtbl.replace owner b.B.local_addr i) backends;
    let lookup dest = Hashtbl.find_opt owner dest in
    let peers = T.Peers.create () in
    Array.iteri (fun r (b : B.t) -> T.Peers.add peers ~rank:r ~addr:b.B.local_addr) backends;
    let fabric = T.Shard.create shards in
    let book = make_book ~members:shards ~w:spec.window in
    let logs = Array.init shards (fun i -> make_log ~remote:(i > 0)) in
    let hops = Array.init shards (fun _ -> Array.init shards (fun _ -> Hops.create ())) in
    let formed = Array.init shards (fun _ -> Atomic.make false) in
    let proceed = Atomic.make 0 (* 0 = wait; 1 = set-up only, finish; 2 = load *) in
    let measuring = Atomic.make false and stop = Atomic.make false in
    let base = now_ns () in
    let t0 = now_ns () in
    let results =
      T.Shard.run fabric (fun ctx ->
          let me = ctx.T.Shard.sx_id in
          let tracer = if opts.traced then Some (Tracer.current ()) else None in
          let world = World.create ~seed () in
          let link = Transport_link.create world in
          let bypassed = T.Shard.bypass fabric ~me ~lookup backends.(me) in
          let hop_samples = Vec.create 0 (* ns *) in
          let backend =
            match tracer with
            | None -> bypassed
            | Some tr ->
              let peer = 1 - me in
              Tracer.wrap_backend tr bypassed
                ~on_send:(fun ~dest ->
                    if lookup dest = Some peer then Hops.post hops.(me).(peer) (now_ns ()))
                ~on_rx:(fun () ->
                    let h = Hops.arrive hops.(peer).(me) (now_ns ()) in
                    if h >= 0 && Atomic.get measuring then Vec.push hop_samples h)
          in
          let driver =
            T.Driver.create ~max_tick:T.Defaults.shard_tick ~shards (World.engine world)
              [ backend ]
          in
          let group =
            match
              join_members ~opts ~link ~world ~peers ~backends:[ backend ] ~ranks:[ me ]
                ~on_cast:(fun _ buf off len ->
                    let e = Payload.read gen buf ~off ~len in
                    let t = now_ns () - base + 1 in
                    append logs.(me) e t;
                    if me = 0 then note book e t)
            with
            | [ g ] -> g
            | _ -> assert false
          in
          let mine () = full_view shards group in
          let snap () = sample ~fabric ~world ~backends:[| backends.(me) |] () in
          let trace_totals = ref None in
          let stop_trace () = trace_totals := Option.map Tracer.copy tracer in
          let setup_s, w, delta =
            if me = 0 then begin
              let ok =
                T.Driver.run_until ~timeout:join_timeout driver (fun () ->
                    if mine () then Atomic.set formed.(0) true;
                    Array.for_all Atomic.get formed)
              in
              let setup_s = float_of_int (now_ns () - t0) /. 1e9 in
              Atomic.set proceed (if full && ok then 2 else 1);
              if not ok then failwith (spec.name ^ ": group did not form");
              if not full then (setup_s, None, C.zero ())
              else begin
                (* Shard 1's deliveries reach the window through its
                   published log. *)
                let seen = Array.make shards 0 in
                let scan () =
                  for i = 1 to shards - 1 do
                    let l = logs.(i) in
                    let upto = Atomic.get l.published in
                    for p = seen.(i) to upto - 1 do
                      note book (Vec.get l.entries p) (Vec.get l.at p)
                    done;
                    seen.(i) <- upto
                  done
                in
                let w =
                  measure ~book ~gen ~opts ~base ~tracer
                    ~sender_group:(fun _ -> group)
                    ~pump:(fun () -> step ~tracer driver; scan ())
                    ~snap
                    ~on_start:(fun () ->
                        Option.iter Tracer.reset tracer;
                        Atomic.set measuring true)
                    ~on_stop:(fun () ->
                        stop_trace ();
                        Atomic.set measuring false)
                    ~domains:shards ~rng:(Random.State.make [| seed |])
                in
                let issued = Window.issued book.window in
                ignore
                  (T.Driver.run_until ~timeout:drain_s driver (fun () ->
                       scan ();
                       Window.completed book.window >= issued));
                Atomic.set stop true;
                (setup_s, Some w, w.delta)
              end
            end
            else begin
              ignore
                (T.Driver.run_until ~timeout:join_timeout driver (fun () ->
                     if mine () then Atomic.set formed.(me) true;
                     Atomic.get proceed <> 0));
              let before = ref None and after = ref None in
              if Atomic.get proceed = 2 then
                while not (Atomic.get stop) do
                  step ~tracer driver;
                  let m = Atomic.get measuring in
                  if m && !before = None then begin
                    before := Some (snap ());
                    Option.iter Tracer.reset tracer
                  end;
                  if (not m) && !before <> None && !after = None then begin
                    after := Some (snap ());
                    stop_trace ()
                  end
                done;
              ( 0.0, None,
                match (!before, !after) with Some b, Some a -> C.diff b a | _ -> C.zero () )
            end
          in
          { sr_tracer = !trace_totals;
            sr_window = w;
            sr_delta = delta;
            sr_view = view_key group;
            sr_full = mine ();
            sr_hops = Array.map (fun h -> float_of_int h /. 1e3) (Vec.to_array hop_samples);
            sr_setup = setup_s })
    in
    let shard_metrics = M.create () in
    T.Shard.export_metrics fabric shard_metrics;
    let bad_frames =
      Array.fold_left (fun acc (b : B.t) -> acc + b.B.stats.B.bad_frame) 0 backends
    in
    Array.iter (fun (b : B.t) -> b.B.close ()) backends;
    (results, book, logs, shard_metrics, bad_frames)
  in
  let setups =
    extra_setups opts (fun () ->
        let results, _, _, _, _ = one ~full:false in
        results.(0).sr_setup)
  in
  let results, book, logs, shard_metrics, bad_frames = one ~full:true in
  let w = match results.(0).sr_window with Some w -> w | None -> assert false in
  let others = Array.sub results 1 (shards - 1) in
  let delta = Array.fold_left (fun acc r -> C.merge ~sender:acc r.sr_delta) w.delta others in
  delta.(C.bad_frames) <- float_of_int bad_frames;
  let tracer =
    Option.map
      (fun t ->
         let sum = Tracer.copy t in
         Array.iter (fun r -> Option.iter (fun t -> Tracer.add ~into:sum t) r.sr_tracer) others;
         sum)
      results.(0).sr_tracer
  in
  let hops_us = Array.concat (Array.to_list (Array.map (fun r -> r.sr_hops) results)) in
  Array.sort Float.compare hops_us;
  outcome spec opts ~setups_s:(results.(0).sr_setup :: setups) ~book ~logs ~w ~delta
    ~domain_ns:(Array.fold_left (fun acc r -> acc +. r.sr_delta.(C.ns)) w.delta.(C.ns) others)
    ~views_agree:(Array.for_all (fun r -> r.sr_view = results.(0).sr_view && r.sr_full) results)
    ~tracer ~hops_us
    ~shard_overflow:(M.count (M.counter shard_metrics "shard.overflow"))
    ~shard_hwm:(M.gauge_value (M.gauge shard_metrics "shard.mailbox_hwm"))

let run spec opts ~seed ~gen =
  if spec.sharded then run_sharded spec opts ~seed ~gen else run_local spec opts ~seed ~gen
