(** The Horus message object (Section 3 of the paper).

    A byte buffer with headroom at the front. Layers push headers going
    down the stack and pop them coming up, like a stack. Multi-byte
    fields are big-endian. *)

type t

exception Truncated of string
(** Raised by pops on messages shorter than the requested field —
    i.e. garbled or malformed traffic. *)

val create : ?headroom:int -> string -> t
(** [create payload] makes a message whose live bytes are [payload]. *)

val of_bytes : ?headroom:int -> Bytes.t -> t

val of_sub : ?headroom:int -> Bytes.t -> off:int -> len:int -> t
(** [of_sub b ~off ~len] makes a message whose live bytes are a copy of
    bytes [off .. off + len) of [b] — one allocation, one blit. Raises
    [Invalid_argument] if the range is not inside [b]. *)

val empty : ?headroom:int -> unit -> t

val length : t -> int
(** Number of live bytes (headers + payload). *)

val copy : t -> t
(** An independent copy of the buffer up to the end of the live bytes
    (headroom included, so a {!mark} taken before pops still restores
    on the copy); any slack past the live bytes is not copied. *)

val to_string : t -> string
(** Copy of the live bytes. *)

val to_bytes : t -> Bytes.t

val push_u8 : t -> int -> unit
val pop_u8 : t -> int
val push_u16 : t -> int -> unit
val pop_u16 : t -> int
val push_u32 : t -> int -> unit
val pop_u32 : t -> int
val push_i64 : t -> int64 -> unit
val pop_i64 : t -> int64
val push_bool : t -> bool -> unit
val pop_bool : t -> bool

val push_string : t -> string -> unit
(** Length-prefixed (u16) string. *)

val pop_string : t -> string

val concat : t list -> t
(** A fresh message whose live bytes are those of the parts, in order:
    one allocation, one blit per part (reassembly). *)

val append : t -> Bytes.t -> unit
(** Append raw bytes at the tail. *)

val replace : t -> Bytes.t -> unit
(** Replace the live bytes wholesale (compression, encryption). *)

type pos = int * int
(** A saved read position. Pops never write into the buffer, so a
    position taken before a run of pops restores them exactly; do not
    restore across a push (pushes write before the offset). *)

val mark : t -> pos

val restore : t -> pos -> unit
(** Undo the pops performed since [mark]. *)

val to_string_at : t -> pos -> string
(** The live bytes as of a saved position, without moving the
    message. *)

val view : t -> Bytes.t * int * int
(** Aliasing (buffer, offset, length) view of the live bytes; no copy.
    Invalidated by any mutation of the message. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
