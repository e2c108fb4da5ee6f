(** A group handle: one endpoint's membership in one group, over a
    freshly instantiated protocol stack (the "group object" of
    Section 3). Exposes the Table 1 downcalls and records the Table 2
    upcalls. *)

open Horus_msg
open Horus_hcpi

type delivery = {
  kind : [ `Cast | `Send ];
  rank : int;
  payload : string;
  meta : Event.meta;
}

type t

val join :
  ?contact:Addr.endpoint ->
  ?on_up:(Event.up -> unit) ->
  ?auto_flush_ok:bool ->
  ?record:bool ->
  ?fastpath:bool ->
  Endpoint.t -> Addr.group -> t
(** Instantiate the endpoint's stack for [group] and issue the join
    downcall. [None] contact founds a singleton group; [Some c] merges
    with the group [c] belongs to. [auto_flush_ok] (default true)
    answers FLUSH upcalls with the flush_ok downcall automatically.
    [record] (default true) keeps the delivery/event logs below; turn
    it off for long-running benchmarks. [fastpath] (default false)
    enables the fused steady-state cast path (see
    {!Horus_hcpi.Stack.create}), which skips inert layers outright;
    it is outcome-preserving, asserted by test/test_fastpath.ml. *)

(** {1 Table 1 downcalls} *)

val cast : t -> string -> unit
val cast_msg : t -> Msg.t -> unit
val send : t -> Addr.endpoint list -> string -> unit
val send_msg : t -> Addr.endpoint list -> Msg.t -> unit
val ack : t -> int -> unit
val mark_stable : t -> int -> unit
val merge : t -> Addr.endpoint -> unit
val merge_granted : t -> Event.merge_request -> unit
val merge_denied : t -> Event.merge_request -> unit
val suspect : t -> Addr.endpoint list -> unit
val flush : t -> Addr.endpoint list -> unit
val flush_ok : t -> unit
val install_view : t -> View.t -> unit
val leave : t -> unit
val dump : t -> string list
val focus : t -> string -> Layer.instance option
val destroy : t -> unit

(** {1 Observers} *)

val endpoint : t -> Endpoint.t
val addr : t -> Addr.endpoint
val group : t -> Addr.group
val stack : t -> Stack.t
val view : t -> View.t option
val views : t -> View.t list
(** All views installed so far, oldest first. *)

val my_rank : t -> int option
val deliveries : t -> delivery list
(** All deliveries so far, oldest first. *)

val casts : t -> string list
(** Payloads of cast deliveries, oldest first. *)

val clear_deliveries : t -> unit
val stability : t -> Event.stability option
val problems : t -> Addr.endpoint list
val merge_requests : t -> Event.merge_request list
val merge_denials : t -> string list
val lost_messages : t -> int
val system_errors : t -> string list
val flushes : t -> int
val exited : t -> bool
val destroyed : t -> bool
val set_on_up : t -> (Event.up -> unit) -> unit
