(** Sequence-numbered slots in one circular array: a map from
    non-negative ints to values, for keys that stay within a moving
    window — a retransmission buffer, a delivery log, a stash of
    out-of-order arrivals.

    Sequence [s] lives in slot [s land (capacity - 1)]. The array
    doubles when the span from the lowest to the highest held key
    outgrows it and never shrinks, so inserts and removals allocate
    nothing once the window has reached its steady size. Holes are
    allowed. Memory is proportional to the span of the keys, not to
    their number: the keys must be sequence numbers the owner itself
    hands out or has checked. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty ring. [dummy] fills vacated slots, so the ring keeps no
    reference to a removed value. *)

val length : 'a t -> int
(** Number of held keys. *)

val is_empty : 'a t -> bool

val mem : 'a t -> int -> bool

val get : 'a t -> int -> 'a
(** Raises [Not_found] if the key is not held. *)

val set : 'a t -> int -> 'a -> unit
(** Add or replace. Raises [Invalid_argument] on a negative key. *)

val remove : 'a t -> int -> unit
(** No-op if the key is not held. *)

val lowest : 'a t -> int
(** The smallest held key. Raises [Invalid_argument] if empty. *)

val drop_below : 'a t -> int -> unit
(** Remove every key below the floor, in time proportional to the
    keys (and holes) crossed. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Ascending key order. [f] must not modify the ring. *)

val clear : 'a t -> unit
