(* Sharded multi-core fabric: N engine shards, one OCaml domain each,
   stitched together by lock-free SPSC mailboxes.

   The sharding model follows the rest of the transport layer's
   hourglass discipline: nothing above the waist knows it is running
   on a shard. Each shard owns its own [Horus_sim.Engine], its own
   disjoint set of endpoints and groups, and its own sockets, pumped
   by its own [Driver] — a shard is a complete single-threaded Horus
   node in miniature, so every determinism argument that holds for one
   engine holds per shard. The only cross-domain traffic is opaque
   frames posted into bounded SPSC rings: one ring per ordered (src,
   dst) shard pair, so every ring has exactly one producer domain and
   one consumer domain and [Spsc]'s single-producer/single-consumer
   contract is met by construction.

   Placement is gid-hash affinity with a pin table on top: groups land
   on [gid mod shards] unless explicitly pinned, and the pin table is
   how directory-aware callers co-locate a HIER sub-group with its
   coordinator's shard. Pins are written during setup (before the
   domains spawn) or under the fabric's mutex, and read lock-free
   thereafter.

   Posts shed on overflow rather than block — a shard must never wait
   on a slower one; the frames ride the same best-effort contract
   (P1) as the wire, and the stack's loss repair recovers them.

   Waking a parked shard. A post makes no socket readable, so a shard
   asleep in poll(2) would otherwise see it only when its timeout
   ends. Each shard's bypass therefore owns a doorbell: a non-blocking
   pipe whose read end sits in its driver's poll set, and an atomic
   [parked] flag. The handshake, with [tail] the ring's atomic
   publication counter:

     consumer (before its one sleep)     poster (after a push)
       parked := true                      tail := tail + 1
       if some inbox is non-empty          if parked && CAS parked
         then decline the sleep               true -> false
       else poll(pipe, sockets)               then write one byte

   OCaml 5 atomics are sequentially consistent, so the four accesses
   fall in one total order. If the consumer's inbox check comes after
   the poster's [tail] write, it sees the frame and declines the
   sleep. Otherwise the consumer's [parked := true] comes before the
   poster's read of [parked], which sees [true]; exactly one poster
   wins the CAS and writes, and the sleep ends on the pipe. Either
   way no wakeup is lost. A busy shard is never parked, so it is
   never rung: its posters pay one atomic read, no syscall. After the
   sleep the consumer swaps [parked] back to [false]; a [false] it
   swaps out means a poster won the CAS and owes (or has written) one
   byte, which the consumer reads from the pipe — then, or at a later
   unpark if the poster had not written it yet — so the pipe is empty
   again by the next sleep. *)

type msg = { m_src : string; m_frame : Bytes.t }

type t = {
  shards : int;
  (* mailboxes.(src).(dst): src posts, dst drains. The diagonal is
     allocated but unused (a shard never posts to itself). *)
  mailboxes : msg Horus_util.Spsc.t array array;
  pins : (int, int) Hashtbl.t;  (* gid -> shard, overriding the hash *)
  mu : Mutex.t;
  posted : int Atomic.t array;    (* per-destination-shard post counts *)
  drained : int Atomic.t array;   (* per-shard drain counts *)
  forwarded : int Atomic.t array; (* per-source-shard bypass diversions *)
  parked : bool Atomic.t array;   (* per-shard: asleep, waiting to be rung *)
  (* Per-shard doorbell write end, claimed by the shard's one bypass
     and never released: posters read it only after winning [parked]. *)
  bells : Unix.file_descr option Atomic.t array;
  wakeups : int Atomic.t array;   (* per-shard rings (bytes written) *)
}

type ctx = {
  sx_id : int;
  sx_shards : int;
  sx_fabric : t;
}

let create ?(mailbox = Defaults.mailbox_capacity) shards =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  { shards;
    mailboxes =
      Array.init shards (fun _ ->
          Array.init shards (fun _ -> Horus_util.Spsc.create mailbox));
    pins = Hashtbl.create 8;
    mu = Mutex.create ();
    posted = Array.init shards (fun _ -> Atomic.make 0);
    drained = Array.init shards (fun _ -> Atomic.make 0);
    forwarded = Array.init shards (fun _ -> Atomic.make 0);
    parked = Array.init shards (fun _ -> Atomic.make false);
    bells = Array.init shards (fun _ -> Atomic.make None);
    wakeups = Array.init shards (fun _ -> Atomic.make 0) }

let shards t = t.shards

(* Which shard a group lives on: the pin table wins, the gid hash
   otherwise. Reads are lock-free (Hashtbl reads race only with pins
   taken under the mutex during setup; steady state is read-only). *)
let shard_of t gid =
  match Hashtbl.find_opt t.pins gid with
  | Some s -> s
  | None -> gid mod t.shards

let pin t ~gid ~shard =
  if shard < 0 || shard >= t.shards then invalid_arg "Shard.pin: no such shard";
  Mutex.lock t.mu;
  Hashtbl.replace t.pins gid shard;
  Mutex.unlock t.mu

let pinned t = Mutex.lock t.mu; let n = Hashtbl.length t.pins in Mutex.unlock t.mu; n

let bell_byte = Bytes.make 1 '!'

(* Ring shard [s]: called only by the poster that won [parked]'s CAS,
   so at most one byte is owed per sleep. A write error is ignored:
   the pipe holds at most a few bytes, and a failed ring degrades to
   the sleep's timeout. *)
let ring t s =
  match Atomic.get t.bells.(s) with
  | Some w ->
    Atomic.incr t.wakeups.(s);
    (try ignore (Unix.single_write w bell_byte 0 1) with Unix.Unix_error _ -> ())
  | None -> ()

(* Post a frame from shard [from] to shard [to_]'s inbox. Callable
   only from shard [from]'s domain (SPSC producer side). False = shed
   (ring full); the ring's own overflow counter records it. A parked
   destination is rung (see the header). *)
let post t ~from ~to_ m =
  if to_ < 0 || to_ >= t.shards then invalid_arg "Shard.post: no such shard";
  let ok = Horus_util.Spsc.push t.mailboxes.(from).(to_) m in
  if ok then begin
    Atomic.incr t.posted.(to_);
    let parked = t.parked.(to_) in
    if Atomic.get parked && Atomic.compare_and_set parked true false then ring t to_
  end;
  ok

(* Whether any inbox of shard [me] from [src] on holds mail (consumer
   side). Top-level, so a park allocates no closure. *)
let rec has_mail t ~me src =
  src < t.shards
  && ((src <> me && not (Horus_util.Spsc.is_empty t.mailboxes.(src).(me)))
      || has_mail t ~me (src + 1))

(* Drain every inbox of shard [me]. Callable only from [me]'s domain
   (SPSC consumer side). Returns messages moved. *)
let drain t ~me f =
  let n = ref 0 in
  for src = 0 to t.shards - 1 do
    if src <> me then
      n := !n + Horus_util.Spsc.drain t.mailboxes.(src).(me) f
  done;
  if !n > 0 then ignore (Atomic.fetch_and_add t.drained.(me) !n);
  !n

(* Run [f] on every shard: domains for shards 1..n-1, the caller's own
   domain for shard 0, results in shard order. Any layer registration
   (Horus_layers.Init.register_all) must happen on the caller's domain
   BEFORE this call — the global registry is populated once, then read
   concurrently. A shard's exception propagates out of [run] after the
   other shards finish. *)
let run t f =
  let results = Array.make t.shards None in
  let spawned =
    Array.init (t.shards - 1) (fun i ->
        let id = i + 1 in
        Domain.spawn (fun () -> f { sx_id = id; sx_shards = t.shards; sx_fabric = t }))
  in
  let first_exn = ref None in
  (match f { sx_id = 0; sx_shards = t.shards; sx_fabric = t } with
   | r -> results.(0) <- Some r
   | exception e -> first_exn := Some e);
  Array.iteri
    (fun i d ->
       match Domain.join d with
       | r -> results.(i + 1) <- Some r
       | exception e -> if !first_exn = None then first_exn := Some e)
    spawned;
  (match !first_exn with Some e -> raise e | None -> ());
  Array.map (function Some r -> r | None -> assert false) results

(* Wrap a shard's backend so sends to co-resident shards bypass the
   kernel: a destination address owned by another shard in this
   process is posted to that shard's mailbox instead of hitting the
   socket. [lookup] maps a destination address to its owning shard
   (None = off-process, use the wire). A shed post falls back to the
   socket — the kernel path still reaches a co-resident shard, just
   slower — so overload degrades instead of losing frames outright.
   The wrapped poll drains the shard's inboxes before the socket. One
   bypass per shard: its poll consumes the whole inbox, and it owns
   the shard's doorbell (a second would orphan the first's pipe). *)
let bypass t ~me ~lookup (b : Backend.t) =
  if me < 0 || me >= t.shards then invalid_arg "Shard.bypass: no such shard";
  let r, w = Unix.pipe ~cloexec:true () in
  if not (Atomic.compare_and_set t.bells.(me) None (Some w)) then begin
    Unix.close r;
    Unix.close w;
    invalid_arg "Shard.bypass: shard already has a bypass"
  end;
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  let rxr = ref None in
  let stats = b.Backend.stats in
  (* Defined once here, not per poll, so an idle poll allocates no
     closure. *)
  let on_mail m =
    match !rxr with
    | Some f ->
      stats.Backend.delivered <- stats.Backend.delivered + 1;
      stats.Backend.bytes_received <- stats.Backend.bytes_received + Bytes.length m.m_frame;
      f ~src:m.m_src m.m_frame
    | None -> stats.Backend.dropped <- stats.Backend.dropped + 1
  in
  (* Rings seen (a [false] swapped out of [parked]) whose byte has not
     been read yet; a poster may win the CAS a moment before it
     writes. *)
  let owed = ref 0 in
  let sink = Bytes.create 64 in
  let unpark () =
    if not (Atomic.exchange t.parked.(me) false) then incr owed;
    if !owed > 0 then
      match Unix.read r sink 0 (Bytes.length sink) with
      | n -> owed := max 0 (!owed - n)
      | exception Unix.Unix_error _ -> ()
  in
  let park () =
    Atomic.set t.parked.(me) true;
    if has_mail t ~me 0 then begin
      unpark ();
      false
    end
    else true
  in
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      Atomic.set t.parked.(me) false;
      Unix.close r;
      Unix.close w
    end;
    b.Backend.close ()
  in
  let send ~dest payload =
    match lookup dest with
    | Some s when s <> me ->
      ignore (Atomic.fetch_and_add t.forwarded.(me) 1);
      (* Mailbox traffic counts in the backend stats like wire traffic
         would have: the datagram was handed over and (on the other
         side) delivered, it just skipped the kernel. *)
      stats.Backend.sent <- stats.Backend.sent + 1;
      stats.Backend.bytes_sent <- stats.Backend.bytes_sent + Bytes.length payload;
      (* Copy at the post, like the wire: the ring owns its bytes, and
         the write happens-before the consumer's read via the ring's
         atomic tail. *)
      let m = { m_src = b.Backend.local_addr; m_frame = Bytes.copy payload } in
      if not (post t ~from:me ~to_:s m) then b.Backend.send ~dest payload
    | Some _ | None -> b.Backend.send ~dest payload
  in
  { b with
    Backend.send;
    set_rx =
      (fun f ->
         rxr := Some f;
         b.Backend.set_rx f);
    poll = (fun () -> let n = drain t ~me on_mail in n + b.Backend.poll ());
    close;
    doorbell = Some { Backend.db_fd = r; db_park = park; db_unpark = unpark } }

(* Snapshot the fabric into a metrics registry: aggregate posts,
   drains, sheds, bypass diversions and doorbell rings, per-shard
   dispatch counters, and the deepest any mailbox has been
   ([shard.mailbox_hwm], a gauge to compare against the capacity). *)
let export_metrics ?(prefix = "shard") t m =
  let c name v = Horus_obs.Metrics.(set_counter (counter m (prefix ^ "." ^ name)) v) in
  let sum a = Array.fold_left (fun acc x -> acc + Atomic.get x) 0 a in
  c "shards" t.shards;
  c "posted" (sum t.posted);
  c "drained" (sum t.drained);
  c "forwarded" (sum t.forwarded);
  c "pins" (pinned t);
  (* Only once a post has rung: a fabric without doorbells (the
     simulator's sharded campaigns) exports exactly what it did before
     doorbells existed. *)
  let wakeups = sum t.wakeups in
  if wakeups > 0 then c "wakeups" wakeups;
  let overflow = ref 0 and hwm = ref 0 in
  Array.iter
    (Array.iter (fun ring ->
         overflow := !overflow + Horus_util.Spsc.overflow ring;
         hwm := max !hwm (Horus_util.Spsc.high_watermark ring)))
    t.mailboxes;
  c "overflow" !overflow;
  Horus_obs.Metrics.(set (gauge m (prefix ^ ".mailbox_hwm")) (float_of_int !hwm));
  for i = 0 to t.shards - 1 do
    c (Printf.sprintf "posted.%d" i) (Atomic.get t.posted.(i));
    c (Printf.sprintf "drained.%d" i) (Atomic.get t.drained.(i))
  done
