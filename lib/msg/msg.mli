(** The Horus message object (Section 3 of the paper).

    A byte buffer with headroom at the front. Layers push headers going
    down the stack and pop them coming up, like a stack. Multi-byte
    fields are big-endian.

    {b Ownership.} A message's buffer may be shared with read-only
    aliases ({!freeze}) and may be a buffer handed over by its owner
    ({!adopt}). Pops never write. A push, {!push_string} or {!append}
    that would write at or above the pin of a message — the lowest
    offset at which any alias of it was taken — first moves the
    message to a private copy of its buffer; a push that ends at or
    below the pin writes only headroom, which no alias reads. An alias
    is pinned at 0, so any write to it moves it first. {!replace},
    {!concat}, {!copy}, {!of_sub} and {!create} always produce an
    unshared buffer. *)

type t

exception Truncated of string
(** Raised by pops on messages shorter than the requested field —
    i.e. garbled or malformed traffic. *)

val create : ?headroom:int -> string -> t
(** [create payload] makes a message whose live bytes are [payload]. *)

val adopt : Bytes.t -> off:int -> len:int -> t
(** [adopt b ~off ~len] makes a message {i of} bytes [off .. off + len)
    of [b], with no copy: the caller hands [b] over and must neither
    read nor write it afterwards. The bytes before [off] (a received
    datagram's spent frame header) become headroom; a push that needs
    more grows the buffer as usual. Raises [Invalid_argument] if the
    range is not inside [b]. *)

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
    (headroom included, so a position saved before pops still restores
    on the copy); any slack past the live bytes is not copied. *)

val freeze : t -> t
(** [freeze m] is a read-only alias of [m]'s live bytes, in place of a
    copy: what a retransmission ring or an unstable store keeps of a
    message that travels on. It pins [m] at its current offset (the
    lowest pin is kept when [m] is frozen more than once), so the
    alias's bytes never change whatever is later done to [m]; a write
    to the alias itself moves the alias to a fresh buffer first. *)

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

val offset : t -> int
(** Where the live bytes start in the buffer. Pops never write into the
    buffer, so [offset m] and [length m], taken before a run of pops,
    are a position that {!restore} returns to exactly; do not restore
    across a push (pushes write before the offset). *)

val restore : t -> off:int -> len:int -> unit
(** [restore m ~off ~len] makes the [len] bytes at [off] the live ones:
    with a position saved by {!offset} and {!length}, it undoes the
    pops performed since. *)

val view : t -> Bytes.t * int * int
(** Aliasing (buffer, offset, length) view of the live bytes; no copy.
    Read only — the buffer may be shared with aliases. Invalidated by
    any mutation of the message. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
