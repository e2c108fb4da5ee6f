(* The sixteen protocol properties of Table 4.

   A property is either a requirement on the communication guarantees
   provided underneath a protocol, or a guarantee provided by the
   protocol itself (Section 6). *)

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

let all =
  [ P1_best_effort; P2_prioritized; P3_fifo_unicast; P4_fifo_multicast;
    P5_causal; P6_total_order; P7_safe_delivery;
    P8_virtually_semi_synchronous; P9_virtually_synchronous;
    P10_byte_reordering_detection; P11_source_address; P12_large_messages;
    P13_causal_timestamps; P14_stability_information; P15_consistent_views;
    P16_automatic_view_merging ]

(* Table 4 numbering, 1-based as in the paper. *)
let number = function
  | P1_best_effort -> 1
  | P2_prioritized -> 2
  | P3_fifo_unicast -> 3
  | P4_fifo_multicast -> 4
  | P5_causal -> 5
  | P6_total_order -> 6
  | P7_safe_delivery -> 7
  | P8_virtually_semi_synchronous -> 8
  | P9_virtually_synchronous -> 9
  | P10_byte_reordering_detection -> 10
  | P11_source_address -> 11
  | P12_large_messages -> 12
  | P13_causal_timestamps -> 13
  | P14_stability_information -> 14
  | P15_consistent_views -> 15
  | P16_automatic_view_merging -> 16

let of_number n =
  match List.find_opt (fun p -> number p = n) all with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Property.of_number: %d" n)

let description = function
  | P1_best_effort -> "best effort delivery"
  | P2_prioritized -> "prioritized effort delivery"
  | P3_fifo_unicast -> "FIFO unicast delivery"
  | P4_fifo_multicast -> "FIFO multicast delivery"
  | P5_causal -> "causal delivery"
  | P6_total_order -> "totally ordered delivery"
  | P7_safe_delivery -> "safe delivery"
  | P8_virtually_semi_synchronous -> "virtually semi-synchronous delivery"
  | P9_virtually_synchronous -> "virtually synchronous delivery"
  | P10_byte_reordering_detection -> "byte re-ordering detection"
  | P11_source_address -> "source address"
  | P12_large_messages -> "large messages"
  | P13_causal_timestamps -> "causal timestamps"
  | P14_stability_information -> "stability information"
  | P15_consistent_views -> "consistent views"
  | P16_automatic_view_merging -> "automatic view merging"

let pp fmt p = Format.fprintf fmt "P%d" (number p)

(* --- property sets, backed by bitsets (bit i-1 for Pi) --- *)

module Set = struct
  type t = Horus_util.Bitset.t

  let empty = Horus_util.Bitset.empty

  let add s p = Horus_util.Bitset.add s (number p - 1)

  let mem s p = Horus_util.Bitset.mem s (number p - 1)

  let of_list ps = List.fold_left add empty ps

  let of_numbers ns = of_list (List.map of_number ns)

  let to_list s = List.map (fun i -> of_number (i + 1)) (Horus_util.Bitset.to_list s)

  let union = Horus_util.Bitset.union
  let inter = Horus_util.Bitset.inter
  let diff = Horus_util.Bitset.diff
  let subset = Horus_util.Bitset.subset
  let equal = Horus_util.Bitset.equal
  let is_empty = Horus_util.Bitset.is_empty
  let cardinal = Horus_util.Bitset.cardinal
  let compare = Horus_util.Bitset.compare
  let hash = Horus_util.Bitset.hash

  let pp fmt s =
    Format.fprintf fmt "{%a}"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",") pp)
      (to_list s)

  let to_string s = Format.asprintf "%a" pp s
end
