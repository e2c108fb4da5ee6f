(** The Horus Common Protocol Interface (Section 4): Table 1 downcalls
    and Table 2 upcalls, as one variant each. Every layer handles both
    directions through these types — that uniformity is what makes
    layers stackable in any order. *)

open Horus_msg

type meta = (string * int) list
(** Extension hook: layers may decorate deliveries (e.g. STABLE tags
    each delivery with the id the application passes back to [ack]). *)

val meta_find : meta -> string -> int option

type merge_request = {
  req_id : int;
  from_coord : Addr.endpoint;
  from_members : Addr.endpoint list;
}
(** Identity of a foreign partition asking to merge. *)

type stability = {
  origins : Addr.endpoint array;
  acked : int array array;
}
(** [acked.(i).(j)] = highest contiguous seqno of origin [i]'s messages
    acknowledged by member [j] (Section 9). *)

type down =
  | D_join of Addr.endpoint option
      (** join; [Some contact] merges with an existing member, [None]
          founds a singleton group *)
  | D_cast of Msg.t             (** multicast to the view *)
  | D_send of Addr.endpoint list * Msg.t  (** send to a subset *)
  | D_ack of int                (** application processed message [id] *)
  | D_stable of int             (** mark message [id] stable *)
  | D_view of View.t            (** install a view (membership layers) *)
  | D_flush of Addr.endpoint list  (** remove members and flush *)
  | D_flush_ok                  (** go along with flush *)
  | D_merge of Addr.endpoint    (** merge with other view via contact *)
  | D_merge_granted of merge_request
  | D_merge_denied of merge_request
  | D_suspect of Addr.endpoint list  (** external failure detector input *)
  | D_leave                     (** leave group *)
  | D_dump                      (** dump layer information *)

type up =
  | U_view of View.t            (** view installation *)
  | U_cast of int * Msg.t * meta   (** multicast from member rank *)
  | U_send of int * Msg.t * meta   (** subset message from member rank *)
  | U_merge_request of merge_request
  | U_merge_denied of string
  | U_flush of Addr.endpoint list  (** view flush started *)
  | U_flush_ok of int           (** member rank completed flush *)
  | U_leave of int              (** member rank leaves *)
  | U_lost_message of int       (** a message from rank was lost *)
  | U_stable of stability       (** stability update *)
  | U_problem of Addr.endpoint  (** communication problem with member *)
  | U_system_error of string
  | U_exit                      (** close down event *)
  | U_destroy                   (** endpoint destroyed *)
  | U_packet of int * Msg.t     (** raw datagram from sender endpoint id (COM ingress) *)

val down_name : down -> string
val up_name : up -> string
