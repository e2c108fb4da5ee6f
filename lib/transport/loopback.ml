(* In-process loopback backend: datagrams between backends on one hub,
   delivered through the owning event engine.

   The deterministic half of the narrow waist. Delivery is an engine
   event scheduled [latency] after the send (default 0), so a world
   whose endpoints sit on a loopback hub behaves exactly like the
   simulator from the stack's point of view — same virtual time, same
   FIFO tie-breaking, byte-identical reruns — while exercising the
   real transport path (frame codec, address book, backend stats)
   instead of the simulator's typed hand-off. Under a wall-clock
   Driver the same hub runs in real time, because the driver pumps the
   same engine.

   Unknown destinations and closed receivers count as drops, mirroring
   what a kernel does to a datagram nobody listens for. A bound
   backend whose rx callback is not yet installed behaves like a bound
   socket nobody has read from yet: arrivals are buffered (up to
   [pending_limit], the analogue of SO_RCVBUF) and flushed to the
   callback the moment it attaches, so the attach-after-send race
   cannot silently eat early frames. *)

type entry = {
  mutable e_rx : Backend.rx option;
  mutable e_closed : bool;
  e_pending : (string * Bytes.t) Queue.t;  (* arrivals before set_rx *)
  e_stats : Backend.stats;
}

(* Arrivals held for a not-yet-attached receiver; beyond this they are
   dropped oldest-first, like a full kernel receive buffer. *)
let pending_limit = Defaults.pending_limit

type hub = {
  engine : Horus_sim.Engine.t;
  latency : float;
  entries : (string, entry) Hashtbl.t;
  mutable next_auto : int;
}

let hub ?(latency = 0.0) engine =
  if latency < 0.0 then invalid_arg "Loopback.hub: negative latency";
  { engine; latency; entries = Hashtbl.create 8; next_auto = 0 }

let hand_to_rx e rx ~src payload =
  e.e_stats.Backend.delivered <- e.e_stats.Backend.delivered + 1;
  e.e_stats.Backend.bytes_received <-
    e.e_stats.Backend.bytes_received + Bytes.length payload;
  rx ~src payload

let deliver hub ~src ~dest payload =
  match Hashtbl.find_opt hub.entries dest with
  | Some e when not e.e_closed ->
    (match e.e_rx with
     | Some rx -> hand_to_rx e rx ~src payload
     | None ->
       Queue.push (src, payload) e.e_pending;
       if Queue.length e.e_pending > pending_limit then begin
         ignore (Queue.pop e.e_pending);
         e.e_stats.Backend.dropped <- e.e_stats.Backend.dropped + 1
       end)
  | Some _ | None -> ()

let create ?addr hub =
  let addr =
    match addr with
    | Some a -> a
    | None ->
      (* Skip over caller-chosen addresses in the same namespace. *)
      let rec fresh () =
        let a = Printf.sprintf "mem:%d" hub.next_auto in
        hub.next_auto <- hub.next_auto + 1;
        if Hashtbl.mem hub.entries a then fresh () else a
      in
      fresh ()
  in
  if Hashtbl.mem hub.entries addr then
    invalid_arg ("Loopback.create: address already bound: " ^ addr);
  let entry =
    { e_rx = None; e_closed = false; e_pending = Queue.create ();
      e_stats = Backend.fresh_stats () }
  in
  Hashtbl.replace hub.entries addr entry;
  let send ~dest payload =
    if not entry.e_closed then begin
      entry.e_stats.Backend.sent <- entry.e_stats.Backend.sent + 1;
      entry.e_stats.Backend.bytes_sent <-
        entry.e_stats.Backend.bytes_sent + Bytes.length payload;
      if Hashtbl.mem hub.entries dest then
        (* Copy at the send: the wire owns its bytes, as with a real
           socket, so later sender-side mutation cannot reach across. *)
        let payload = Bytes.copy payload in
        ignore
          (Horus_sim.Engine.schedule hub.engine ~delay:hub.latency (fun () ->
               deliver hub ~src:addr ~dest payload))
      else entry.e_stats.Backend.dropped <- entry.e_stats.Backend.dropped + 1
    end
  in
  { Backend.local_addr = addr;
    send;
    set_rx =
      (fun rx ->
         entry.e_rx <- Some rx;
         (* Flush what arrived before the callback existed, in order. *)
         while not (Queue.is_empty entry.e_pending) do
           let src, payload = Queue.pop entry.e_pending in
           hand_to_rx entry rx ~src payload
         done);
    fd = None;
    poll = (fun () -> 0);  (* deliveries ride the engine, nothing to drain *)
    close = (fun () -> entry.e_closed <- true);
    stats = entry.e_stats;
    batch = None }
