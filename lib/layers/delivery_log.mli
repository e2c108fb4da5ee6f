(** Per-view delivery bookkeeping shared by the membership-family
    layers: contiguous per-origin delivery with an out-of-order stash,
    the unstable-message store used by flush recovery, and the wire
    codecs for receive vectors and message copies.

    State is kept per origin: the next expected sequence number, the
    store as a sequence-indexed ring from the stability floor up, and
    a stash of early arrivals. The store keeps frozen aliases of the
    logged messages ({!Msg.freeze}), not copies: delivering an in-order
    cast allocates only the alias and the upcall, and the payloads
    become strings only when a flush asks ({!copies},
    {!cut_and_union}). {!gc} visits only the entries it frees. *)

open Horus_msg
open Horus_hcpi

type t

val create : emit_up:(Event.up -> unit) -> t
(** A log that delivers through [emit_up], as [U_cast] upcalls. *)

val reset : t -> unit
(** Forget everything — a new view. *)

val record : t -> origin:int -> seq:int -> Msg.t -> unit
(** Log a message's live bytes (add or replace), as a frozen alias:
    later writes to the message do not reach the log. *)

val size : t -> int
(** Logged payloads, over all origins. *)

val next_expected : t -> int -> int

val ooo_pending : t -> int
(** Messages stashed ahead of sequence, over all origins. *)

val advance : t -> origin:int -> seq:int -> payload:Msg.t -> unit
(** {!accept}'s in-order branch with an empty stash: advance the
    origin's lane past [seq] and log [payload]'s live bytes, as
    {!record} does — the fused-delivery commit. *)

val accept : t -> origin:int -> seq:int -> rank:int -> Msg.t -> Event.meta -> unit
(** Deliver in per-origin sequence as [U_cast (rank, m, meta)],
    logging each delivered payload, then deliver whatever was stashed
    right behind it; stash ahead-of-sequence arrivals (a later arrival
    with the same seq replaces the stashed one); drop duplicates.
    [rank] is delivered as given: resolve it before the call. *)

val vector : t -> (int * int) list
(** Sorted (origin, next expected) pairs, for every origin with a
    delivery — a flush receive vector. *)

val copies : t -> (int * int * string) list
(** Every logged message, sorted — a flush reply's offered copies. *)

val gc : t -> floor_of:(int -> int) -> unit
(** Drop logged messages below the per-origin stability floor.
    [floor_of] is asked once per origin with logged messages. *)

val push_pairs : Msg.t -> (int * int) list -> unit
val pop_pairs : Msg.t -> (int * int) list
val push_copies : Msg.t -> (int * int * string) list -> unit
val pop_copies : Msg.t -> (int * int * string) list

val cut_and_union :
  own:t ->
  ((int * int) list * (int * int * string) list) list ->
  (int, int) Hashtbl.t * (int * int, string) Hashtbl.t
(** Maximal per-origin cut over the replies, and the union message
    store — what a flush coordinator computes before forwarding. *)

val missing_for :
  cut:(int, int) Hashtbl.t ->
  everything:(int * int, string) Hashtbl.t ->
  (int * int) list ->
  (int * int * string) list
(** The copies one replier is missing under the cut. *)
