(* Transport-wide default constants, hoisted into one place so the
   driver's pacing and the backends' buffering stay tunable from a
   single spot instead of drifting apart as magic literals. *)

(* Cap on any single driver sleep: bounds the poll latency of fd-less
   backends (loopback) that cannot wake a select. *)
let max_tick = 0.05

(* Floor under driver sleeps: a 0-timeout select degenerates into a
   busy spin. *)
let min_sleep = 0.0005

(* Per-endpoint bound on queued undelivered datagrams in the loopback
   backend — the analogue of SO_RCVBUF; beyond it the oldest are
   dropped (datagram semantics). *)
let pending_limit = 1024

(* Datagrams per batched syscall when a backend opts into
   recvmmsg/sendmmsg; also the size of its reusable rx buffer ring. *)
let mmsg_batch = 32

(* Capacity of each inter-shard SPSC mailbox (rounded up to a power of
   two by the ring). Posts beyond it are shed, not blocked — a shard
   must never wait on a slower one — and counted as overflow. *)
let mailbox_capacity = 1024

(* A 2 ms sleep cap for per-shard drivers. Nothing in the library
   reads it: a mailbox post rings a parked shard's doorbell (Shard),
   so a sharded driver sleeps like any other. Kept until the
   closed-loop benchmark stops passing it. *)
let shard_tick = 0.002
