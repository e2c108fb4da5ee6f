(** Protocol layers as abstract data types.

    A layer is a constructor from an environment to an instance; the
    environment's emitters enqueue onto the owning endpoint's event
    queue (the paper's event-queue scheduling model). *)

open Horus_msg

type transport = { xmit : dsts:Addr.endpoint list -> Msg.t -> unit }
(** Best-effort datagram transport under the stack; used only by
    bottom adapter layers such as COM. [xmit ~dsts m] sends the live
    bytes of [m] as one datagram to each of [dsts]. The transport
    copies them once, into the frame it shares across destinations,
    before it returns; [m] stays the caller's and is not modified, so
    the caller may go on popping or pushing it. *)

type rendezvous = {
  announce : Addr.group -> Addr.endpoint -> unit;
  withdraw : Addr.group -> Addr.endpoint -> unit;
  lookup : Addr.group -> Addr.endpoint list;
}
(** Resource-location service used by membership/merge layers to find
    foreign partitions of the same group. *)

val null_rendezvous : rendezvous

type storage = {
  append : key:string -> string -> unit;
  read : key:string -> string list;
  truncate : key:string -> unit;
}
(** Stable storage that survives process crashes (a simulated disk);
    append-only logs addressed by string keys. *)

val null_storage : storage

type fastpath = {
  fp_send_ready : len:int -> bool;
  fp_send : Msg.t -> unit;
  fp_deliver_check : src:int -> Msg.t -> bool;
  fp_deliver_commit : Msg.t -> unit;
}
(** One layer's compiled steady-state cast handling. Ready/check
    phases must be pure apart from pops on the message (restored on
    fallback); all mutation belongs in the commit phases, which must
    reproduce the full path's effects exactly. [fp_send] pushes the
    layer's header onto the same {!Msg.t} the full path would, with
    the same stamp code. [fp_deliver_check ~src] gets the sender's
    endpoint id. *)

type fp_bottom = {
  fpb_send_ready : unit -> bool;
  fpb_cast : Msg.t -> unit;
  fpb_parse : src:int -> Msg.t -> int;
  fpb_parsed : int -> Event.meta;
}
(** The bottom adapter's compiled form: frame-and-transmit on the way
    down ([fpb_cast] is the full path's cast handler: it also hands
    the sender's own copy up through the normal queue when the sender
    is a destination), envelope recognition on the way up. The
    adapter recovers P11 from the attachment, not the wire:
    [fpb_parse ~src] gets the packet's node, the sender's endpoint id,
    and returns the sender's rank, or -1 to decline. [fpb_parsed rank]
    commits the delivery and returns its meta. *)

type env = {
  engine : Horus_sim.Engine.t;
  endpoint : Addr.endpoint;
  group : Addr.group;
  prng : Horus_util.Prng.t;
  transport : transport;
  rendezvous : rendezvous;
  storage : storage;
  metrics : Horus_obs.Metrics.t option;
      (** the owning world's registry, for protocol-level counters *)
  emit_up : Event.up -> unit;
  emit_down : Event.down -> unit;
  set_timer : delay:float -> (unit -> unit) -> Horus_sim.Engine.handle;
  reject : unit -> unit;
      (** count one refused event (an unknown kind, a bad checksum, a
          request for seqs never assigned) under [layers.<NAME>.rejected]
          in the stack's registry, if it has one. A [handle_up] that
          raises [Msg.Truncated] is counted by the stack itself. *)
  fp_register : (unit -> fastpath option) -> unit;
      (** offer a fast-path compiler (from the constructor, at most
          once); invoked lazily whenever the path is (re)built *)
  fp_register_bottom : (unit -> fp_bottom option) -> unit;
  fp_invalidate : unit -> unit;
      (** tear down any compiled path — for steady-state exits no view
          event announces (NAK repair, token handover, flush) *)
}

type instance = {
  name : string;
  handle_down : Event.down -> unit;
  handle_up : Event.up -> unit;
  dump : unit -> string list;
  stop : unit -> unit;
  inert : bool;
      (** both handlers forward everything untouched; the fused fast
          path leaves the layer out (Section 10's layer-skipping
          remedy) *)
}

type ctor = env -> instance

val passthrough : name:string -> ?inert:bool -> env -> instance
(** Build an instance that passes every event through — the
    mechanical form of property inheritance. *)

val every : env -> period:float -> (unit -> unit) -> unit -> unit
(** [every env ~period f] runs [f] periodically; the returned thunk
    stops it. *)
