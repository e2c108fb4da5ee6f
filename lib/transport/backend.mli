(** The narrow waist of the transport subsystem: a pluggable datagram
    backend. Moves opaque byte blobs between string-keyed addresses,
    best-effort (property P1 and nothing else). Implementations:
    {!Udp} (real sockets) and {!Loopback} (in-process, deterministic).
    Framing and endpoint addressing live above, in {!Frame} and
    {!Peers}. *)

type stats = {
  mutable sent : int;          (** datagrams handed to the backend *)
  mutable delivered : int;     (** datagrams handed to the rx callback *)
  mutable bad_frame : int;     (** rx datagrams rejected by the frame codec *)
  mutable dropped : int;       (** no route / no rx callback / closed peer *)
  mutable send_errors : int;   (** OS-level send failures *)
  mutable bytes_sent : int;
  mutable bytes_received : int;
}

val fresh_stats : unit -> stats

type rx = src:string -> Bytes.t -> unit
(** Receive callback; [src] is the sender's address in the backend's
    own scheme (a UDP [host:port], a loopback [mem:N]). The bytes
    belong to the callee from then on: the backend keeps no reference,
    no other callback ever sees them, and they are not the sender's
    buffer, so the callee may keep them or write them in place. Every
    backend meets this with one copy per delivery: {!Udp} hands over
    an exact-size [Bytes.sub] of its receive buffer (never the buffer
    itself, nor a slot of its batched ring), {!Loopback} copies on
    ingestion and [Shard.bypass] at the post. {!Chaos} wraps only the
    sends, so its deliveries are the wrapped backend's. *)

type batch = {
  bt_size : int;                       (** datagrams per syscall, both ways *)
  mutable bt_flush : unit -> unit;     (** push out staged sends now *)
  bt_rx_hist : int array;              (** rx batch-size counts; index =
                                           drained-1, capped at the last bucket *)
  bt_tx_hist : int array;              (** tx batch-size counts, same shape *)
  mutable bt_rx_syscalls : int;
  mutable bt_tx_syscalls : int;
}
(** The batched extension point: backends that can move many datagrams
    per syscall publish one; scalar backends leave {!t.batch} [None]
    and {!flush} is a no-op for them. A batched backend may stage
    sends until the next {!flush} — drivers flush once per pump. Its
    receives still reach the one {!rx} callback, one datagram at a
    time, on the same terms as a scalar drain. *)

type t = {
  local_addr : string;     (** this backend's own address *)
  send : dest:string -> Bytes.t -> unit;
      (** Bytes handed to [send] are immutable from then on: neither
          the caller nor the backend may write them, and the caller
          may hand the same bytes to several destinations (one frame
          per multi-destination cast). A backend may keep a reference
          (a batched {!Udp} stages the bytes until its next flush,
          {!Chaos} parks them to reorder) but alters only its own copy
          ({!Chaos} corrupts a copy; {!Loopback} and {!Shard} copy on
          ingestion). *)
  set_rx : rx -> unit;
      (** Install the receive callback (one at a time); it owns the
          bytes it is handed (see {!rx}). *)
  fd : Unix.file_descr option;
      (** readiness handle for select-based drivers; [None] for
          in-process backends whose delivery rides the event engine *)
  poll : unit -> int;      (** drain ready datagrams into rx; count drained *)
  close : unit -> unit;
  stats : stats;
  batch : batch option;    (** batched-syscall extension; [None] = scalar *)
}

val flush : t -> unit
(** Push out any staged sends; a no-op on scalar backends. *)

val export_metrics : ?prefix:string -> t -> Horus_obs.Metrics.t -> unit
(** Mirror the backend's stats into a registry as monotone
    [<prefix>.sent], [<prefix>.delivered], [<prefix>.bad_frame],
    [<prefix>.dropped], [<prefix>.send_errors], [<prefix>.bytes_sent],
    [<prefix>.bytes_received] counters ([prefix] defaults to
    ["transport"]). Called at snapshot time, like [Net.export_metrics]. *)

val export_metrics_sum : ?prefix:string -> t list -> Horus_obs.Metrics.t -> unit
(** Same, summing the stats of several backends (a world hosting many
    endpoints). *)
