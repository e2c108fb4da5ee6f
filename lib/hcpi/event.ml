(* The Horus Common Protocol Interface (Section 4).

   Downcalls travel from the application toward the network (Table 1);
   upcalls travel from the network toward the application (Table 2).
   Every layer handles both directions through the same types — that
   uniformity is what makes layers stackable in any order.

   [meta] is the "hook with which the interface can be extended": an
   association list a layer may decorate a delivery with (e.g. STABLE
   tags deliveries with the id the application passes back to [ack]). *)

open Horus_msg

type meta = (string * int) list

let meta_find meta key = List.assoc_opt key meta

(* A merge request names the coordinator and membership of the foreign
   partition asking to merge (Tables 1 and 2: merge, merge_denied,
   merge_granted, MERGE_REQUEST, MERGE_DENIED). *)
type merge_request = {
  req_id : int;
  from_coord : Addr.endpoint;
  from_members : Addr.endpoint list;
}

(* Stability matrix (Section 9): [acked.(i).(j)] is the highest
   contiguous sequence number of origin [i]'s messages that member [j]
   has acknowledged having processed. *)
type stability = {
  origins : Addr.endpoint array;
  acked : int array array;
}

type down =
  | D_join of Addr.endpoint option
      (* join the group; [Some contact] merges with an existing member,
         [None] founds a singleton group *)
  | D_cast of Msg.t                              (* multicast to the view *)
  | D_send of Addr.endpoint list * Msg.t         (* send to a subset *)
  | D_ack of int                                 (* application processed message [id] *)
  | D_stable of int                              (* mark message [id] stable *)
  | D_view of View.t                             (* install a view (membership layers) *)
  | D_flush of Addr.endpoint list                (* remove members and flush *)
  | D_flush_ok                                   (* go along with flush *)
  | D_merge of Addr.endpoint                     (* merge with other view via contact *)
  | D_merge_granted of merge_request
  | D_merge_denied of merge_request
  | D_suspect of Addr.endpoint list              (* external failure detector input *)
  | D_leave                                      (* leave group *)
  | D_dump                                       (* dump layer information *)

type up =
  | U_view of View.t                             (* view installation *)
  | U_cast of int * Msg.t * meta                 (* multicast from member rank *)
  | U_send of int * Msg.t * meta                 (* subset message from member rank *)
  | U_merge_request of merge_request             (* foreign partition asks to merge *)
  | U_merge_denied of string                     (* our merge request was denied *)
  | U_flush of Addr.endpoint list                (* view flush started *)
  | U_flush_ok of int                            (* member rank completed flush *)
  | U_leave of int                               (* member rank leaves *)
  | U_lost_message of int                        (* a message from rank was lost *)
  | U_stable of stability                        (* stability update *)
  | U_problem of Addr.endpoint                   (* communication problem with member *)
  | U_system_error of string                     (* system error report *)
  | U_exit                                       (* close down event *)
  | U_destroy                                    (* endpoint destroyed *)
  | U_packet of int * Msg.t                      (* raw datagram from sender endpoint id *)

let down_name = function
  | D_join _ -> "join"
  | D_cast _ -> "cast"
  | D_send _ -> "send"
  | D_ack _ -> "ack"
  | D_stable _ -> "stable"
  | D_view _ -> "view"
  | D_flush _ -> "flush"
  | D_flush_ok -> "flush_ok"
  | D_merge _ -> "merge"
  | D_merge_granted _ -> "merge_granted"
  | D_merge_denied _ -> "merge_denied"
  | D_suspect _ -> "suspect"
  | D_leave -> "leave"
  | D_dump -> "dump"

let up_name = function
  | U_view _ -> "VIEW"
  | U_cast _ -> "CAST"
  | U_send _ -> "SEND"
  | U_merge_request _ -> "MERGE_REQUEST"
  | U_merge_denied _ -> "MERGE_DENIED"
  | U_flush _ -> "FLUSH"
  | U_flush_ok _ -> "FLUSH_OK"
  | U_leave _ -> "LEAVE"
  | U_lost_message _ -> "LOST_MESSAGE"
  | U_stable _ -> "STABLE"
  | U_problem _ -> "PROBLEM"
  | U_system_error _ -> "SYSTEM_ERROR"
  | U_exit -> "EXIT"
  | U_destroy -> "DESTROY"
  | U_packet _ -> "PACKET"
