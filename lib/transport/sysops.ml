(* Thin OCaml face of udp_stubs.c: scalar and batched datagram
   syscalls and a poll(2) wait. The batched calls and poll have a
   sticky "unsupported" latch so one ENOSYS (or a non-Linux build of
   the stubs) flips the caller to its portable fallback permanently
   instead of paying a failing syscall per batch.

   The stubs' return-code protocol: >=0 work done, -1 would-block,
   -2 unsupported (latch and fall back), -3 other OS error, -4
   ECONNREFUSED. *)

external raw_sendto :
  Unix.file_descr -> Bytes.t -> int -> int -> int -> int = "horus_sendto"
[@@noalloc]

external raw_recvfrom : Unix.file_descr -> Bytes.t -> int array -> int = "horus_recvfrom"
[@@noalloc]

external raw_recvmmsg :
  Unix.file_descr -> Bytes.t array -> int array -> int array -> int array -> int
  = "horus_recvmmsg"

external raw_sendmmsg :
  Unix.file_descr -> Bytes.t array -> int array -> int array -> int array -> int
  -> int
  = "horus_sendmmsg_byte" "horus_sendmmsg"

external raw_poll : Unix.file_descr array -> int -> int = "horus_poll"

type result =
  | Got of int       (* datagrams / ready fds *)
  | Would_block
  | Unsupported      (* latched; switch to the fallback path *)
  | Refused          (* ECONNREFUSED: an earlier send's ICMP error *)
  | Os_error

let would_block = -1

let refused = -4

(* One datagram each way, straight from or into [buf]; the result is
   a byte count or one of the negative codes above. *)
let sendto fd buf ~len ~ip ~port =
  if len < 0 || len > Bytes.length buf then invalid_arg "Sysops.sendto";
  raw_sendto fd buf len ip port

let recvfrom fd buf ~src =
  if Array.length src < 2 then invalid_arg "Sysops.recvfrom";
  raw_recvfrom fd buf src

let mmsg_supported = ref true

let poll_supported = ref true

let classify latch r =
  if r >= 0 then Got r
  else if r = -1 then Would_block
  else if r = -2 then begin
    latch := false;
    Unsupported
  end
  else if r = refused then Refused
  else Os_error

(* Receive up to [Array.length bufs] datagrams in one syscall; fills
   [lens], [ips] (host-order IPv4) and [ports] per datagram. *)
let recvmmsg fd ~bufs ~lens ~ips ~ports =
  if not !mmsg_supported then Unsupported
  else classify mmsg_supported (raw_recvmmsg fd bufs lens ips ports)

(* Transmit the first [count] staged datagrams in one syscall. *)
let sendmmsg fd ~bufs ~lens ~ips ~ports ~count =
  if not !mmsg_supported then Unsupported
  else classify mmsg_supported (raw_sendmmsg fd bufs lens ips ports count)

(* Wait up to [timeout_ms] for readability on any fd (no FD_SETSIZE
   ceiling, unlike select). An empty fd array is a plain sleep. *)
let poll_in fds ~timeout_ms =
  if not !poll_supported then Unsupported
  else classify poll_supported (raw_poll fds timeout_ms)

let mmsg_available () = !mmsg_supported

let poll_available () = !poll_supported
