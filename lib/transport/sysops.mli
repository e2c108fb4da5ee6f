(** Datagram syscalls, scalar ([sendto]/[recvfrom]) and batched
    ([sendmmsg]/[recvmmsg]), and a poll(2) wait, via small C stubs.
    The batched calls and the wait have a sticky unsupported-latch: the
    first ENOSYS (or a non-Linux build) permanently flips the caller to
    its portable scalar/select fallback. *)

(** {2 Scalar calls}

    Both return a byte count ([>= 0]) or a negative code: {!would_block},
    {!refused}, or another negative number for any other OS error. They
    move bytes straight between the socket and the OCaml buffer, and
    allocate nothing; they raise only [Invalid_argument], on a [len]
    outside the buffer or a [src] shorter than two. *)

val would_block : int
(** Nothing to do right now (EAGAIN, EWOULDBLOCK, EINTR). *)

val refused : int
(** ECONNREFUSED: the kernel reporting an earlier send's ICMP
    port-unreachable. The socket is still usable. *)

val sendto : Unix.file_descr -> Bytes.t -> len:int -> ip:int -> port:int -> int
(** Send the first [len] bytes of the buffer to host-order IPv4 [ip]
    and [port]. *)

val recvfrom : Unix.file_descr -> Bytes.t -> src:int array -> int
(** Receive one datagram into the buffer (truncated to its length).
    On success [src.(0)] is the host-order IPv4 source and [src.(1)]
    the source port; [src] must have at least two elements. *)

(** {2 Batched calls and poll} *)

type result =
  | Got of int       (** datagrams moved / fds ready *)
  | Would_block      (** nothing to do right now *)
  | Unsupported      (** latched off; use the fallback from now on *)
  | Refused          (** ECONNREFUSED: an earlier send's ICMP error *)
  | Os_error         (** other OS error; charge an error counter *)

val recvmmsg :
  Unix.file_descr ->
  bufs:Bytes.t array -> lens:int array -> ips:int array -> ports:int array ->
  result
(** Drain up to [Array.length bufs] datagrams in one syscall. For each
    received datagram [i], [lens.(i)] is its size, [ips.(i)] the
    host-order IPv4 source and [ports.(i)] the source port. *)

val sendmmsg :
  Unix.file_descr ->
  bufs:Bytes.t array -> lens:int array -> ips:int array -> ports:int array ->
  count:int -> result
(** Transmit the first [count] staged datagrams in one syscall;
    [Got n] says the kernel accepted the first [n]. *)

val poll_in : Unix.file_descr array -> timeout_ms:int -> result
(** Wait for readability on any fd, without select's FD_SETSIZE
    ceiling. An empty array is a plain bounded sleep. *)

val mmsg_available : unit -> bool
(** Whether the batched syscalls are still believed to work here. *)

val poll_available : unit -> bool
