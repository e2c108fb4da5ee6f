(** A communication endpoint: a network attachment plus a protocol
    stack spec. Joining a group (see {!Group}) instantiates a fresh
    stack over the endpoint.

    The attachment is pluggable: by default the endpoint rides the
    world's simulated network; a deployment passes [attach] (built by
    {!Transport_link}) to bind the same stacks to a real transport
    backend instead. *)

open Horus_msg

type t

type attachment = {
  a_xmit : gid:int -> dsts:Addr.endpoint list -> Msg.t -> unit;
  a_crash : unit -> unit;
}
(** How packets leave the endpoint and what happens when it crashes.
    [a_xmit] sends the message's live bytes as one datagram to each of
    [dsts]: it frames them into one buffer of its own, shared among
    the destinations, before it returns, and never modifies the
    message. Incoming packets come back through {!deliver}. *)

val create : ?addr:Addr.endpoint -> ?attach:(t -> attachment) -> World.t -> spec:string -> t
(** [create world ~spec] allocates an address, attaches to the world's
    simulated network, and parses [spec] (e.g.
    ["TOTAL:MBRSHIP:FRAG:NAK:COM"]). [addr] pins the endpoint address
    instead of allocating one — deployments use this so every process
    agrees on ranks. [attach] replaces the simulated-network attachment.
    Raises {!Horus_hcpi.Spec.Parse_error} on a bad spec. *)

val world : t -> World.t
val addr : t -> Addr.endpoint
val node : t -> int
val spec : t -> Horus_hcpi.Spec.t

val is_crashed : t -> bool

val crash : t -> unit
(** Crash the endpoint: its attachment stops carrying traffic and all
    its stacks halt silently. *)

val deliver : t -> gid:int -> src:int -> Msg.t -> unit
(** Inject an incoming packet, routed to the stack joined to group
    [gid] (dropped if none, or if the endpoint has crashed).
    Attachments call this from their receive path. [src] must be the
    sender's endpoint id: no envelope repeats it, so COM takes the
    source address (P11) from it. *)

val deliver_routed : t -> gid:int -> src:int -> Msg.t -> bool
(** Like {!deliver}, but reports routability: [false] only when the
    endpoint is alive and no stack is joined to [gid] — how a
    shared-socket link counts unknown-gid frames. Crashed endpoints
    swallow frames and return [true]. *)

(**/**)

(** Internal plumbing for {!Group}. *)

val register_route : t -> gid:int -> (src:int -> Msg.t -> unit) -> unit
val unregister_route : t -> gid:int -> unit

val set_route_hook : t -> (bind:bool -> gid:int -> unit) -> unit
(** Install the attachment's route observer (one slot; installed by
    {!Transport_link} shared-socket attachments before any group
    joins). Called on every {!register_route} / {!unregister_route}. *)

val add_crash_hook : t -> (unit -> unit) -> unit
val transport : t -> gid:int -> Horus_hcpi.Layer.transport
