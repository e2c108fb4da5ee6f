(** Versioned wire frame for real-network datagrams: magic, version
    byte, source endpoint and destination group (the u32 ids of the
    shared {!Horus_msg.Wire} codecs), explicit payload length, and a trailing
    CRC-32 — so truncated, padded or garbled packets are rejected at
    the door. Layout (big-endian):

    [magic u16 | version u8 | src u32 | gid u32 | paylen u32 | payload | crc32 u32] *)

open Horus_msg

val magic : int
(** 0x4844, "HD": a Horus datagram. *)

val version : int

val overhead : int
(** Bytes added around a payload (header + trailing CRC). *)

type header = { h_src : Addr.endpoint; h_group : Addr.group }

type error =
  | Too_short of int              (** total bytes received *)
  | Bad_magic of int
  | Bad_version of int
  | Bad_crc of { expected : int; got : int }
  | Length_mismatch of { declared : int; actual : int }

val error_to_string : error -> string

val pp_error : Format.formatter -> error -> unit

val encode : ?version:int -> src:Addr.endpoint -> group:Addr.group -> Bytes.t -> Bytes.t
(** [encode ~src ~group payload] wraps a stack payload in a checked
    envelope: one fresh buffer of [overhead + length payload] bytes,
    the payload copied into it once. [version] is exposed for the
    codec's own rejection tests; real senders use the default. *)

val encode_sub :
  src:Addr.endpoint -> group:Addr.group -> Bytes.t -> off:int -> len:int -> Bytes.t
(** {!encode} of the [len] bytes of a buffer starting at [off] — a
    message's live bytes, framed without first being copied out.
    Raises [Invalid_argument] if the range is not inside the buffer. *)

val decode_view : Bytes.t -> off:int -> len:int -> (header * int * int, error) result
(** Check the frame held in the [len] bytes of [b] starting at [off]
    and locate its payload, copying nothing: [Ok (hdr, poff, plen)]
    means the payload is bytes [poff .. poff + plen) of [b], a range
    inside [off .. off + len). Checks, in order: minimum length, magic,
    version, CRC (over everything before it), declared payload length.
    Any byte content yields [Ok] or [Error], never an exception; a
    range outside [b] is a caller error and may raise
    [Invalid_argument]. *)

val decode : Bytes.t -> (header * Bytes.t, error) result
(** Inverse of {!encode}: {!decode_view} on the whole of [b], with the
    payload copied out. *)
