(* UDP datagram backend: the real-network half of the narrow waist.

   One non-blocking IPv4 datagram socket per backend. Addresses are
   "host:port" strings (dotted quads; name resolution is out of scope
   for a waist this narrow). Sends are fire-and-forget: full socket
   buffers and ICMP-reported errors count as send_errors/drops, never
   block, and never raise into the protocol stack — UDP promises P1
   and the layers above repair the rest.

   The file descriptor is exposed so a Driver can select on many
   backends at once; poll drains every datagram the kernel has ready
   and hands each to the rx callback with the sender's address.

   Every syscall goes through udp_stubs.c (via Sysops), not the Unix
   library's stubs: the kernel reads a send straight out of the
   payload's bytes and writes a receive straight into the backend's
   buffer, with no staging copy through a C stack buffer, and the
   source address comes back as an IPv4 int and port, so receiving
   allocates nothing but the datagram handed up. Only IPv4 is spoken;
   a destination of another family counts as a send error, as the
   kernel's EAFNOSUPPORT on this PF_INET socket would.

   With [batch = 0] (the default) each datagram takes one sendto or
   recvfrom. With [batch > 0] the backend moves datagrams through the
   kernel in batches (recvmmsg/sendmmsg, one syscall per batch): sends
   stage into a tx ring by reference and go out on the next
   [Backend.flush] (drivers flush once per pump) or when the ring
   fills; receives drain into a reusable rx buffer ring, and each
   datagram goes to the rx callback as an exact-size copy of its slot,
   as the scalar drain does. When the stubs report Unsupported
   (non-Linux, ENOSYS) every path falls back to the scalar
   sendto/recvfrom loop — behaviourally identical, just slower.

   Errors never escape a call. Full socket buffers count as drops.
   ECONNREFUSED (a previous send's ICMP error, reported on a later
   call) counts as a send error, and a drain goes on past it; any other
   error counts as a send error and ends that drain or flush. *)

let parse_addr s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "UDP address %S: expected HOST:PORT" s)
  | Some i ->
    let host = String.sub s 0 i in
    let port_s = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port_s with
     | None -> Error (Printf.sprintf "UDP address %S: bad port %S" s port_s)
     | Some port when port < 0 || port > 0xffff ->
       Error (Printf.sprintf "UDP address %S: port out of range" s)
     | Some port ->
       (match Unix.inet_addr_of_string host with
        | addr -> Ok (Unix.ADDR_INET (addr, port))
        | exception _ ->
          Error (Printf.sprintf "UDP address %S: bad host %S (use a dotted quad)" s host)))

let string_of_sockaddr = function
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> p

(* Practical ceiling for a UDP payload over IPv4 (65535 - 20 IP - 8 UDP). *)
let max_datagram = 65_507

(* Host-order IPv4 int of an inet_addr, as the stubs take it; None for
   anything that is not a dotted quad (an IPv6 destination). *)
let ipv4_int a =
  match String.split_on_char '.' (Unix.string_of_inet_addr a) with
  | [ x; y; z; w ] ->
    (match (int_of_string_opt x, int_of_string_opt y,
            int_of_string_opt z, int_of_string_opt w) with
     | Some x, Some y, Some z, Some w
       when x land 0xff = x && y land 0xff = y && z land 0xff = z && w land 0xff = w ->
       Some ((((((x lsl 8) lor y) lsl 8) lor z) lsl 8) lor w)
     | _ -> None)
  | _ -> None

(* Resolve caches are bounded: a churning peer set (directory-driven
   deployments hand out fresh ephemeral ports every incarnation) must
   not grow them without limit. Past the cap the cache is reset — the
   live peer set re-populates it within one round of traffic. *)
let cache_limit = 512

(* A destination as the send path needs it. *)
type dest =
  | Ipv4 of int * int  (* host-order address, port *)
  | Other_family       (* parsed, but not IPv4 *)
  | Malformed

let create ?(batch = 0) ~bind () =
  if batch < 0 then invalid_arg "Udp.create: batch must be >= 0";
  let batch = min batch 256 (* the stubs' HORUS_MAX_BATCH *) in
  let sockaddr =
    match parse_addr bind with
    | Ok a -> a
    | Error e -> invalid_arg ("Udp.create: " ^ e)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  (* SO_REUSEADDR lets a fixed port be rebound right after a restart.
     On a port-0 bind it would let the kernel hand out a port another
     such socket already holds, so ephemeral binds go without it. *)
  let reuse = match sockaddr with Unix.ADDR_INET (_, 0) -> false | _ -> true in
  (match
     if reuse then Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd sockaddr;
     Unix.set_nonblock fd
   with
   | () -> ()
   | exception e ->
     (try Unix.close fd with _ -> ());
     raise e);
  let local_addr = string_of_sockaddr (Unix.getsockname fd) in
  let stats = Backend.fresh_stats () in
  let rx = ref None in
  let closed = ref false in
  (* Destination parses are cached (the send path is hot), bounded (the
     peer set may churn). *)
  let dests : (string, dest) Hashtbl.t = Hashtbl.create 8 in
  let resolve dest =
    match Hashtbl.find_opt dests dest with
    | Some r -> r
    | None ->
      let r =
        match parse_addr dest with
        | Ok (Unix.ADDR_INET (a, p)) ->
          (match ipv4_int a with Some ip -> Ipv4 (ip, p) | None -> Other_family)
        | Ok (Unix.ADDR_UNIX _) -> Other_family
        | Error _ -> Malformed
      in
      if Hashtbl.length dests >= cache_limit then Hashtbl.reset dests;
      Hashtbl.replace dests dest r;
      r
  in
  let send_scalar ~ip ~port payload =
    let r = Sysops.sendto fd payload ~len:(Bytes.length payload) ~ip ~port in
    if r = Sysops.would_block then stats.Backend.dropped <- stats.Backend.dropped + 1
    else if r < 0 then stats.Backend.send_errors <- stats.Backend.send_errors + 1
  in
  (* --- batched state (allocated only when batch > 0) --- *)
  let empty = Bytes.create 0 in
  let tbufs = Array.make (max batch 1) empty in
  let tlens = Array.make (max batch 1) 0 in
  let tips = Array.make (max batch 1) 0 in
  let tports = Array.make (max batch 1) 0 in
  let tcount = ref 0 in
  let rbufs = Array.init (max batch 1) (fun _ -> if batch > 0 then Bytes.create 65_536 else empty) in
  let rlens = Array.make (max batch 1) 0 in
  let rips = Array.make (max batch 1) 0 in
  let rports = Array.make (max batch 1) 0 in
  (* Source addresses repeat heavily (the peer set is small); cache the
     formatted "a.b.c.d:port" per (ip, port) so neither rx path
     allocates a string per datagram. Bounded like the dests cache. *)
  let srcs : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let src_string ip port =
    let key = (ip lsl 16) lor port in
    match Hashtbl.find_opt srcs key with
    | Some s -> s
    | None ->
      let s =
        Printf.sprintf "%d.%d.%d.%d:%d"
          ((ip lsr 24) land 0xff) ((ip lsr 16) land 0xff)
          ((ip lsr 8) land 0xff) (ip land 0xff) port
      in
      if Hashtbl.length srcs >= cache_limit then Hashtbl.reset srcs;
      Hashtbl.replace srcs key s;
      s
  in
  let batch_rec =
    if batch = 0 then None
    else
      Some
        { Backend.bt_size = batch;
          bt_flush = (fun () -> ());  (* replaced below, after flush_tx exists *)
          bt_rx_hist = Array.make batch 0;
          bt_tx_hist = Array.make batch 0;
          bt_rx_syscalls = 0;
          bt_tx_syscalls = 0 }
  in
  let flush_tx () =
    if !tcount > 0 then begin
      let n = !tcount in
      (match
         Sysops.sendmmsg fd ~bufs:tbufs ~lens:tlens ~ips:tips ~ports:tports ~count:n
       with
       | Sysops.Got sent ->
         (match batch_rec with
          | Some b ->
            b.Backend.bt_tx_syscalls <- b.Backend.bt_tx_syscalls + 1;
            let i = min (max (sent - 1) 0) (batch - 1) in
            b.Backend.bt_tx_hist.(i) <- b.Backend.bt_tx_hist.(i) + 1
          | None -> ());
         (* A partial batch means the socket buffer filled mid-run:
            fire-and-forget drops the rest, like the scalar path. *)
         if sent < n then stats.Backend.dropped <- stats.Backend.dropped + (n - sent)
       | Sysops.Would_block -> stats.Backend.dropped <- stats.Backend.dropped + n
       | Sysops.Refused | Sysops.Os_error ->
         stats.Backend.send_errors <- stats.Backend.send_errors + n
       | Sysops.Unsupported ->
         (* Latched off: replay this batch scalar; future sends take the
            scalar path directly. *)
         for i = 0 to n - 1 do
           send_scalar ~ip:tips.(i) ~port:tports.(i) tbufs.(i)
         done);
      Array.fill tbufs 0 n empty;  (* release the payload references *)
      tcount := 0
    end
  in
  (match batch_rec with
   | Some b -> b.Backend.bt_flush <- (fun () -> if not !closed then flush_tx ())
   | None -> ());
  let send ~dest payload =
    if not !closed then begin
      stats.Backend.sent <- stats.Backend.sent + 1;
      stats.Backend.bytes_sent <- stats.Backend.bytes_sent + Bytes.length payload;
      match resolve dest with
      | Malformed -> stats.Backend.dropped <- stats.Backend.dropped + 1
      | Other_family -> stats.Backend.send_errors <- stats.Backend.send_errors + 1
      | Ipv4 (ip, port) when batch > 0 && Sysops.mmsg_available () ->
        (* Stage by reference: sent bytes are immutable (see
           Backend.t's [send]), possibly shared with other
           destinations of the same frame. *)
        if !tcount >= batch then flush_tx ();
        let i = !tcount in
        tbufs.(i) <- payload;
        tlens.(i) <- Bytes.length payload;
        tips.(i) <- ip;
        tports.(i) <- port;
        incr tcount
      | Ipv4 (ip, port) -> send_scalar ~ip ~port payload
    end
  in
  let buf = Bytes.create 65_536 in
  let src = Array.make 2 0 in
  (* The scalar drain: also the batched path's fallback when the stubs
     latch off mid-run. *)
  let poll_scalar () =
    let drained = ref 0 in
    let continue = ref true in
    while !continue do
      let n = Sysops.recvfrom fd buf ~src in
      if n >= 0 then begin
        stats.Backend.bytes_received <- stats.Backend.bytes_received + n;
        (match !rx with
         | Some f ->
           stats.Backend.delivered <- stats.Backend.delivered + 1;
           f ~src:(src_string src.(0) src.(1)) (Bytes.sub buf 0 n)
         | None ->
           (* Unreachable: poll returns early without an rx. *)
           stats.Backend.dropped <- stats.Backend.dropped + 1);
        incr drained
      end
      else if n = Sysops.refused then
        (* Linux reports a previous send's ICMP failure on receive;
           charge it to the sender and keep draining. *)
        stats.Backend.send_errors <- stats.Backend.send_errors + 1
      else begin
        if n <> Sysops.would_block then
          stats.Backend.send_errors <- stats.Backend.send_errors + 1;
        continue := false
      end
    done;
    !drained
  in
  let poll_batched b =
    let drained = ref 0 in
    let continue = ref true in
    while !continue do
      match Sysops.recvmmsg fd ~bufs:rbufs ~lens:rlens ~ips:rips ~ports:rports with
      | Sysops.Got 0 -> continue := false
      | Sysops.Got n ->
        b.Backend.bt_rx_syscalls <- b.Backend.bt_rx_syscalls + 1;
        let h = min (n - 1) (batch - 1) in
        b.Backend.bt_rx_hist.(h) <- b.Backend.bt_rx_hist.(h) + 1;
        for i = 0 to n - 1 do
          let len = rlens.(i) in
          stats.Backend.bytes_received <- stats.Backend.bytes_received + len;
          match !rx with
          | Some f ->
            stats.Backend.delivered <- stats.Backend.delivered + 1;
            f ~src:(src_string rips.(i) rports.(i)) (Bytes.sub rbufs.(i) 0 len)
          | None -> stats.Backend.dropped <- stats.Backend.dropped + 1
        done;
        drained := !drained + n;
        if n < batch then continue := false
      | Sysops.Would_block -> continue := false
      | Sysops.Unsupported ->
        drained := !drained + poll_scalar ();
        continue := false
      | Sysops.Refused -> stats.Backend.send_errors <- stats.Backend.send_errors + 1
      | Sysops.Os_error ->
        stats.Backend.send_errors <- stats.Backend.send_errors + 1;
        continue := false
    done;
    !drained
  in
  let poll () =
    (* No rx consumer yet: leave datagrams in the kernel buffer rather
       than reading and discarding them, so frames that arrive before
       the stack attaches survive until it does. *)
    if !closed || !rx = None then 0
    else
      match batch_rec with
      | Some b when Sysops.mmsg_available () -> poll_batched b
      | _ -> poll_scalar ()
  in
  { Backend.local_addr;
    send;
    set_rx = (fun f -> rx := Some f);
    fd = Some fd;
    poll;
    close =
      (fun () ->
         if not !closed then begin
           (try flush_tx () with _ -> ());
           closed := true;
           try Unix.close fd with _ -> ()
         end);
    stats;
    batch = batch_rec;
    doorbell = None }
