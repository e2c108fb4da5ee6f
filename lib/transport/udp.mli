(** UDP datagram backend: one non-blocking IPv4 socket per backend,
    addresses as ["host:port"] dotted-quad strings. Sends never block
    and never raise into the stack (failures become stats); {!val-create}
    exposes the socket's fd so a {!Driver} can select on it. Every
    syscall goes through {!Sysops}, which moves bytes straight between
    the socket and the OCaml buffers. *)

val parse_addr : string -> (Unix.sockaddr, string) result
(** Parse ["host:port"] (dotted quad, no name resolution). *)

val max_datagram : int
(** Practical ceiling for a UDP payload over IPv4 (65507 bytes). *)

val create : ?batch:int -> bind:string -> unit -> Backend.t
(** [create ~bind ()] binds a non-blocking datagram socket on [bind]
    (["host:port"]; port [0] picks an ephemeral port, reflected in the
    returned [local_addr]). Raises [Invalid_argument] on a malformed
    address and [Unix.Unix_error] when the bind itself fails.

    [batch] (default [0], clamped to 256) turns on batched syscalls:
    sends stage into a tx ring (flushed by {!Backend.flush}, which
    drivers call once per pump, or when the ring fills) and go out via
    [sendmmsg]; receives drain [batch] at a time via [recvmmsg] into a
    reusable buffer ring, delivered zero-copy to an installed
    {!Backend.rx_view}. Where the kernel lacks the mmsg syscalls the
    backend transparently falls back to the scalar path. [batch = 0]
    is exactly the scalar backend. *)
