(** The sixteen protocol properties of Table 4 and property sets. *)

type t =
  | P1_best_effort
  | P2_prioritized
  | P3_fifo_unicast
  | P4_fifo_multicast
  | P5_causal
  | P6_total_order
  | P7_safe_delivery
  | P8_virtually_semi_synchronous
  | P9_virtually_synchronous
  | P10_byte_reordering_detection
  | P11_source_address
  | P12_large_messages
  | P13_causal_timestamps
  | P14_stability_information
  | P15_consistent_views
  | P16_automatic_view_merging

val all : t list

val number : t -> int
(** 1-based Table 4 numbering. *)

val of_number : int -> t
val description : t -> string
val pp : Format.formatter -> t -> unit

(** Property sets, backed by bitsets (cheap value semantics for the
    synthesis search). *)
module Set : sig
  type property := t
  type t

  val empty : t
  val add : t -> property -> t
  val mem : t -> property -> bool
  val of_list : property list -> t
  val of_numbers : int list -> t
  val to_list : t -> property list
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val subset : t -> t -> bool
  val equal : t -> t -> bool
  val is_empty : t -> bool
  val cardinal : t -> int
  val compare : t -> t -> int
  val hash : t -> int
  val pp : Format.formatter -> t -> unit
  val to_string : t -> string
end
