(* The narrow waist of the transport subsystem (the hourglass model):
   every way of moving a datagram — real UDP sockets, the in-process
   loopback, and whatever comes later (TCP bundles, shared memory,
   DPDK) — is squeezed through this one record so the entire Horus
   stack above it is backend-agnostic.

   A backend is deliberately dumber than the simulator's Net: it moves
   opaque byte blobs between string-keyed addresses, best-effort, with
   no ordering or delivery promises (property P1 and nothing else).
   Framing, addressing of endpoints, and loss repair all live above
   (Frame, Peers, and the protocol stack respectively). *)

type stats = {
  mutable sent : int;          (* datagrams handed to the backend *)
  mutable delivered : int;     (* datagrams handed to the rx callback *)
  mutable bad_frame : int;     (* rx datagrams rejected by the frame codec *)
  mutable dropped : int;       (* no route / no rx callback / closed peer *)
  mutable send_errors : int;   (* OS-level send failures *)
  mutable bytes_sent : int;
  mutable bytes_received : int;
}

let fresh_stats () =
  { sent = 0; delivered = 0; bad_frame = 0; dropped = 0; send_errors = 0;
    bytes_sent = 0; bytes_received = 0 }

type rx = src:string -> Bytes.t -> unit

(* The batched extension point. Backends that can move many datagrams
   per syscall (Udp over recvmmsg/sendmmsg) publish one of these;
   everyone else leaves it [None] and [flush] below is a no-op, so
   Loopback and Chaos are untouched. A batched backend may *stage*
   sends until the next [flush] (drivers flush once per pump); its rx
   side drains many datagrams per syscall but hands each to the one
   [rx] callback under the same ownership contract as a scalar drain. *)
type batch = {
  bt_size : int;                       (* datagrams per syscall, both ways *)
  mutable bt_flush : unit -> unit;     (* push out staged sends now *)
  bt_rx_hist : int array;              (* rx batch-size counts; index = drained-1,
                                          capped at the last bucket *)
  bt_tx_hist : int array;              (* tx batch-size counts, same shape *)
  mutable bt_rx_syscalls : int;
  mutable bt_tx_syscalls : int;
}

type t = {
  local_addr : string;     (* this backend's own address, in its scheme *)
  send : dest:string -> Bytes.t -> unit;
  set_rx : rx -> unit;     (* install the receive callback (one at a time);
                              it owns the bytes it is handed *)
  fd : Unix.file_descr option;  (* readiness handle for select-based drivers *)
  poll : unit -> int;      (* drain ready datagrams into rx; count drained *)
  close : unit -> unit;
  stats : stats;
  batch : batch option;    (* batched-syscall extension; None = scalar only *)
}

let flush t = match t.batch with Some b -> b.bt_flush () | None -> ()

(* Mirror the stats of a set of backends into a metrics registry as
   monotone counters (summed across the set), the same way Net exports
   its wire stats: called at snapshot time, so the registry needs no
   hook in the datagram hot path. *)
let export_metrics_sum ?(prefix = "transport") backends m =
  let total f = List.fold_left (fun acc b -> acc + f b.stats) 0 backends in
  let c name v = Horus_obs.Metrics.(set_counter (counter m (prefix ^ "." ^ name)) v) in
  c "sent" (total (fun s -> s.sent));
  c "delivered" (total (fun s -> s.delivered));
  c "bad_frame" (total (fun s -> s.bad_frame));
  c "dropped" (total (fun s -> s.dropped));
  c "send_errors" (total (fun s -> s.send_errors));
  c "bytes_sent" (total (fun s -> s.bytes_sent));
  c "bytes_received" (total (fun s -> s.bytes_received));
  (* The batched-syscall economics, when any backend in the set runs
     batched: syscall totals plus the batch-size distributions
     (bucket i = batches of i+1 datagrams, last bucket = "or more"). *)
  let batched = List.filter_map (fun b -> b.batch) backends in
  if batched <> [] then begin
    c "tx_syscalls" (List.fold_left (fun a b -> a + b.bt_tx_syscalls) 0 batched);
    c "rx_syscalls" (List.fold_left (fun a b -> a + b.bt_rx_syscalls) 0 batched);
    let hist name f =
      let width = List.fold_left (fun a b -> max a (Array.length (f b))) 0 batched in
      let sums = Array.make width 0 in
      List.iter
        (fun b -> Array.iteri (fun i n -> sums.(i) <- sums.(i) + n) (f b))
        batched;
      Array.iteri
        (fun i n -> if n > 0 then c (Printf.sprintf "%s.%d" name (i + 1)) n)
        sums
    in
    hist "tx_batch" (fun b -> b.bt_tx_hist);
    hist "rx_batch" (fun b -> b.bt_rx_hist)
  end

let export_metrics ?prefix t m = export_metrics_sum ?prefix [ t ] m
