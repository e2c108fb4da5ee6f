(** Segment-list messages for the fused send path (zero-copy bodies).

    An iovec-style message: a pooled header block filled back to front
    plus a list of body segments aliasing their source buffers.
    Building one from an application {!Msg} copies nothing; the single
    gather happens once, at the bottom of the stack. Multi-byte fields
    are big-endian, matching {!Msg}. *)

type t

val of_msg : Pool.t -> Msg.t -> t
(** The message's live bytes become the (aliased, uncopied) body; a
    header block is acquired from [pool]. The view is invalidated by
    any mutation of the source message. *)

val length : t -> int
(** Headers + body, in bytes. *)

val push_u8 : t -> int -> unit
val push_u16 : t -> int -> unit
val push_u32 : t -> int -> unit
val push_bool : t -> bool -> unit
(** Pushes prepend to the headers, exactly like the corresponding
    {!Msg} pushes. A header stack that outgrows the pooled block
    spills into a private larger buffer, so pushes never fail. *)

val contents : t -> string
(** Headers and body gathered into one fresh string (the wire
    image). *)

val to_msg : t -> Msg.t
(** A flat {!Msg} (with default headroom) holding the gathered
    bytes. *)

val dispose : t -> unit
(** Return the header block to the pool. Idempotent; the segment must
    not be used afterwards. *)
