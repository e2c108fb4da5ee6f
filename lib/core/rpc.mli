(** Request/reply correlation over a group's subset sends (Figure 1's
    "rpc" type): client/server interactions built over the group
    abstraction. *)

open Horus_msg

type outcome = [ `Reply of string | `Timeout ]

type t

val attach :
  ?handler:(rank:int -> string -> string) ->
  ?on_up:(Horus_hcpi.Event.up -> unit) ->
  Group.t -> t
(** Take over the group handle's upcall callback for RPC routing.
    [handler] serves incoming calls (default replies ""); [on_up]
    receives all non-RPC events so the application keeps its own
    event handling. *)

val call : ?timeout:float -> t -> server:Addr.endpoint -> string -> (outcome -> unit) -> unit
(** Asynchronous call; the continuation fires with the reply or, after
    [timeout] (default 1 s), with [`Timeout]. *)

val group : t -> Group.t

val stats : t -> int * int
(** (calls made, calls served). *)
