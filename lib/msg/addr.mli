(** Endpoint and group addresses.

    Endpoint id order doubles as age order (lower id = older), which
    MBRSHIP uses for message-free coordinator election. *)

type endpoint = private { eid : int }

type group = private { gid : int }

val endpoint : int -> endpoint
val group : int -> group
val endpoint_id : endpoint -> int
val group_id : group -> int
val compare_endpoint : endpoint -> endpoint -> int
val equal_endpoint : endpoint -> endpoint -> bool
val equal_group : group -> group -> bool
val pp_endpoint : Format.formatter -> endpoint -> unit
val pp_group : Format.formatter -> group -> unit
val endpoint_to_string : endpoint -> string

module Endpoint_set : Set.S with type elt = endpoint
module Endpoint_map : Map.S with type key = endpoint
