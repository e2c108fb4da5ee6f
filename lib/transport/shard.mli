(** Sharded multi-core fabric: N engine shards, one OCaml domain each,
    stitched together by bounded lock-free SPSC mailboxes.

    Each shard is a complete single-threaded Horus node in miniature —
    its own engine, endpoints, sockets and driver — so per-shard
    determinism is the ordinary single-engine kind. Cross-shard
    traffic is opaque frames in one SPSC ring per ordered (src, dst)
    shard pair (single producer and single consumer by construction).
    Groups land on [gid mod shards] unless pinned; posts shed on
    overflow rather than block (best-effort, like the wire — the
    stack's loss repair recovers them). A post to a shard whose driver
    is asleep rings that shard's doorbell (see {!bypass}); a post to a
    busy shard costs one atomic read and no syscall. *)

type msg = { m_src : string; m_frame : Bytes.t }
(** A mailbox message: an encoded wire frame and the sender's
    backend address (what the rx callback would have seen from the
    socket). *)

type t
(** The fabric: mailboxes, placement table and counters shared by all
    shards. *)

type ctx = {
  sx_id : int;      (** this shard's index, [0 .. sx_shards-1] *)
  sx_shards : int;
  sx_fabric : t;
}
(** Handed to each shard's body by {!run}. *)

val create : ?mailbox:int -> int -> t
(** [create n] builds a fabric of [n] shards; [mailbox] (default
    {!Defaults.mailbox_capacity}) bounds each inter-shard ring.
    Raises [Invalid_argument] if [n < 1]. *)

val shards : t -> int

val shard_of : t -> int -> int
(** [shard_of t gid]: the shard a group lives on — its pin if any,
    else [gid mod shards]. *)

val pin : t -> gid:int -> shard:int -> unit
(** Override the hash for one group — how a directory-aware caller
    co-locates a HIER sub-group with its coordinator's shard. Write
    pins during setup (before {!run}); reads are lock-free. *)

val pinned : t -> int
(** Number of pinned groups. *)

val post : t -> from:int -> to_:int -> msg -> bool
(** Post into shard [to_]'s inbox. Must be called from shard [from]'s
    domain (the ring's single producer). [false] = ring full, message
    shed (counted as overflow). If [to_] is parked (its driver is
    between its bypass's [db_park] and [db_unpark]), the first post to
    win the flag writes one byte to its doorbell pipe; a shard that
    is not parked is never rung. *)

val drain : t -> me:int -> (msg -> unit) -> int
(** Drain every inbox of shard [me] in source order; must be called
    from [me]'s domain (the ring's single consumer). Returns messages
    moved. *)

val run : t -> (ctx -> 'a) -> 'a array
(** Run one body per shard — shard 0 on the calling domain, the rest
    on fresh domains — and return the results in shard order. Global
    registrations (e.g. [Horus_layers.Init.register_all]) must happen
    on the calling domain {e before} this call. If any shard raises,
    the first exception is re-raised after all shards finish. *)

val bypass : t -> me:int -> lookup:(string -> int option) -> Backend.t -> Backend.t
(** Wrap shard [me]'s backend so sends whose destination address
    [lookup] maps to a co-resident shard are posted to that shard's
    mailbox instead of the kernel; its poll drains [me]'s inboxes
    before the socket. A shed post falls back to the real send.

    The wrapper carries shard [me]'s doorbell ({!Backend.doorbell}): a
    non-blocking, close-on-exec [Unix.pipe] whose read end is
    [db_fd]. [db_park] marks the shard parked, then checks every inbox
    once more and declines the sleep if any holds mail; [db_unpark]
    clears the mark and reads the pipe only if a post rang it. Because
    OCaml atomics are sequentially consistent, a post either lands
    before the re-check (the sleep is declined) or sees the shard
    parked and rings it, so no wakeup is lost. A {!Driver} over the
    wrapper polls [db_fd] next to the socket, so cross-shard mail
    wakes it at once.

    One bypass per shard: its poll consumes the whole inbox and it
    owns the shard's doorbell, so a second [bypass] for the same [me]
    raises [Invalid_argument] (as does a [me] outside the fabric).
    The wrapper's [close] closes both pipe fds, then the wrapped
    backend; call it after {!run} returns, when no shard posts any
    more. *)

val export_metrics : ?prefix:string -> t -> Horus_obs.Metrics.t -> unit
(** Mirror the fabric's counters into a registry ([prefix] defaults to
    ["shard"]): [shard.posted]/[drained]/[forwarded]/[overflow]/
    [pins]/[shards] totals, [shard.wakeups] (doorbell rings: posts
    that found their destination parked and woke it; at most
    [shard.posted], and well below it while the shards are busy;
    exported only once it is non-zero, so a fabric whose shards have
    no {!bypass} exports the same keys as before doorbells existed),
    per-shard [shard.posted.<i>] and [shard.drained.<i>] dispatch
    counters, and a [shard.mailbox_hwm] gauge (deepest any mailbox has
    been). *)
