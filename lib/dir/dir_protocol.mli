(** The directory wire protocol: versioned request/reply messages
    carried in ordinary {!Horus_transport.Frame} frames on one
    reserved gid ({!gid}), so directory traffic multiplexes onto any
    socket a transport link already owns. Every message carries a
    protocol {!version} byte, an opcode and a request id for
    correlation over a connectionless socket. *)

val gid : int
(** The reserved group id directory frames travel on. *)

val service_eid : int
(** The src endpoint id stamped on frames the service sends. *)

val version : int

(** One replicated mutation. Leases travel as {e remaining} duration,
    re-anchored on the receiving replica's clock. *)
type change =
  | Ch_bind of { rank : int; addr : string; remaining : float }
  | Ch_remove of int
  | Ch_sub of string
  | Ch_unsub of string

type snapshot_group = {
  sg_group : int;
  sg_version : int;
  sg_entries : (int * string * float) list;  (** rank, addr, remaining lease *)
  sg_subs : string list;
}

type request =
  | Register of { group : int; rank : int; addr : string; lease : float }
      (** bind [rank -> addr] in [group] for [lease] seconds *)
  | Renew of { group : int; rank : int; lease : float }
  | Unregister of { group : int; rank : int }
  | Lookup of { group : int; rank : int }
  | List_group of int
  | List_groups
  | Subscribe of int  (** change notifications for one group *)
  | Unsubscribe of int
  | Repl_delta of { epoch : int; seq : int; group : int; version : int; change : change }
      (** primary -> backup: one mutation; [seq] gap = ask for a snapshot *)
  | Repl_heartbeat of { epoch : int; seq : int }
      (** primary -> backup: liveness + high-water seq *)
  | Repl_sync of { from_seq : int }
      (** backup -> primary: resynchronize me from a snapshot *)
  | Repl_snapshot of { epoch : int; seq : int; groups : snapshot_group list }
      (** primary -> backup: the full state image at [seq] *)

type error_code = Unknown_group | Unknown_rank | Bad_request | Not_primary

type reply =
  | Registered of { group : int; rank : int; version : int; expires : float }
  | Found of { group : int; rank : int; addr : string }
  | Entries of { group : int; version : int; entries : (int * string) list }
      (** rank-sorted membership snapshot *)
  | Groups of int list
  | Subscribed of { group : int; version : int }
  | Done  (** unregister / unsubscribe acknowledged *)
  | Notify of { group : int; version : int; rank : int; addr : string option }
      (** unsolicited (req id 0): a binding changed; [None] = removed *)
  | Error of { code : error_code; detail : string }

val error_code_to_string : error_code -> string

val encode_request : req_id:int -> request -> Bytes.t
val decode_request : Bytes.t -> (int * request, string) result

val encode_reply : req_id:int -> reply -> Bytes.t
val decode_reply : Bytes.t -> (int * reply, string) result

val pp_reply : Format.formatter -> reply -> unit
