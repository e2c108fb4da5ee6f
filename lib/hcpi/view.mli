(** Group views: ordered member lists with unique ids.

    Rank 0 is the oldest member and the coordinator. The view id pairs
    a logical time with the installing coordinator, making ids unique
    across partitions. *)

open Horus_msg

type id = {
  ltime : int;
  coord : Addr.endpoint;
}

type t

val create : group:Addr.group -> ltime:int -> members:Addr.endpoint list -> t
(** First member becomes coordinator. Raises on empty or duplicate
    member lists. *)

val singleton : group:Addr.group -> Addr.endpoint -> t

val group : t -> Addr.group
val id : t -> id
val ltime : t -> int
val coordinator : t -> Addr.endpoint
val members : t -> Addr.endpoint list
val members_array : t -> Addr.endpoint array
val size : t -> int
val nth : t -> int -> Addr.endpoint
val rank_of : t -> Addr.endpoint -> int option
val mem : t -> Addr.endpoint -> bool
val equal_id : id -> id -> bool

val successor : t -> failed:Addr.endpoint list -> joiners:Addr.endpoint list -> t option
(** Next view: survivors in rank order, then joiners in age order;
    [None] if nobody survives. Coordinator is the oldest survivor. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val push : Msg.t -> t -> unit
val pop : Msg.t -> t
