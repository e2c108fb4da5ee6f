(** A ring of the per-stack event queue: a FIFO over a growable
    circular array whose push and pop allocate nothing once it has
    grown to the stack's steady depth. *)

type 'a t

val create : dummy:'a -> 'a t
(** An empty queue. [dummy] fills vacated slots, so the queue keeps no
    reference to a popped item. *)

val push : 'a t -> 'a -> unit

val pop : 'a t -> 'a
(** The oldest item. Raises [Invalid_argument] if the queue is
    empty. *)

val is_empty : 'a t -> bool
val clear : 'a t -> unit
