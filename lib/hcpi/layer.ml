(* Protocol layers as abstract data types (Sections 1 and 4).

   A layer is a constructor from an environment to an instance. The
   environment carries everything a layer may touch: its endpoint and
   group identity, emitters toward the layers above and below (which
   enqueue onto the owning endpoint's event queue — the paper's
   event-queue scheduling model), timers, a deterministic PRNG, the
   raw transport (used only by bottom adapters such as COM), and the
   rendezvous service (a resource-location service used by membership
   and merge layers to find foreign partitions). *)

open Horus_msg

(* Best-effort datagram transport under the stack ("ATM" in the
   paper's example). Only bottom adapter layers use it. One call sends
   the message's live bytes as one datagram to every destination: the
   transport frames them once, straight out of the message's buffer,
   into a buffer of its own before it returns. The message stays the
   caller's, unread after the call and never modified. *)
type transport = { xmit : dsts:Addr.endpoint list -> Msg.t -> unit }

(* Resource-location service: group coordinators announce themselves so
   that merge layers can find foreign partitions. *)
type rendezvous = {
  announce : Addr.group -> Addr.endpoint -> unit;
  withdraw : Addr.group -> Addr.endpoint -> unit;
  lookup : Addr.group -> Addr.endpoint list;
}

let null_rendezvous =
  { announce = (fun _ _ -> ()); withdraw = (fun _ _ -> ()); lookup = (fun _ -> []) }

(* Stable storage that survives process crashes (a simulated disk):
   append-only logs addressed by string keys. The LOG layer uses it to
   tolerate total failures (Figure 1's "logging" type). *)
type storage = {
  append : key:string -> string -> unit;
  read : key:string -> string list;   (* records in append order *)
  truncate : key:string -> unit;
}

let null_storage =
  { append = (fun ~key:_ _ -> ()); read = (fun ~key:_ -> []); truncate = (fun ~key:_ -> ()) }

(* Fused fast path (the Section 10 remedies, taken further): a layer
   may offer the stack a compiled form of its steady-state cast
   handling. The stack strings the per-layer pieces into one closure
   pair and runs casts through them without touching the event queue.

   Discipline: the [*_ready]/[*_check] phases must be pure with
   respect to outcome-visible state (pops on the message are fine —
   the stack restores them on fallback), so that a [false] anywhere
   can fall back to the full stack and re-execute from scratch. All
   mutation belongs in the commit phases, which run only once every
   check has passed and must reproduce the full path's effects
   exactly. *)
type fastpath = {
  fp_send_ready : len:int -> bool;
      (* may this layer's send work be fused for an [len]-byte
         application payload? Pure. *)
  fp_send : Msg.t -> unit;
      (* commit: push this layer's header(s) onto the application's
         message and apply the side effects the full down-path would
         have had — by running the same stamp code. *)
  fp_deliver_check : src:int -> Msg.t -> bool;
      (* pop this layer's header(s) and decide whether the packet from
         endpoint id [src] is the undisturbed next-in-order cast. May
         stash scratch for the commit; must not mutate outcome-visible
         state. *)
  fp_deliver_commit : Msg.t -> unit;
      (* apply the side effects the full up-path would have had. *)
}

(* The bottom layer (the network adapter, e.g. COM) both frames
   outgoing casts and recognises incoming ones, so it gets its own
   shape. *)
type fp_bottom = {
  fpb_send_ready : unit -> bool;
  fpb_cast : Msg.t -> unit;
      (* frame and transmit the cast, and deliver the sender's own
         copy through the normal queue when it is a destination:
         the full path's cast handler itself. *)
  fpb_parse : src:int -> Msg.t -> int;
      (* strip the envelope of a packet from endpoint id [src] (the
         packet's node); the sender's rank when it is a well-formed
         cast from a current member, else -1. Pure but for pops. *)
  fpb_parsed : int -> Event.meta;
      (* commit for a fused delivery from that rank (e.g. bump the
         received counter); returns the delivery's meta. *)
}

type env = {
  engine : Horus_sim.Engine.t;
  endpoint : Addr.endpoint;
  group : Addr.group;
  prng : Horus_util.Prng.t;
  transport : transport;
  rendezvous : rendezvous;
  storage : storage;
  metrics : Horus_obs.Metrics.t option;
      (* the owning world's registry, when it keeps one; layers export
         protocol-level counters (e.g. nak.retransmits) through it *)
  emit_up : Event.up -> unit;     (* toward the application *)
  emit_down : Event.down -> unit; (* toward the network *)
  set_timer : delay:float -> (unit -> unit) -> Horus_sim.Engine.handle;
  reject : unit -> unit;
      (* count one refused event as layers.<NAME>.rejected; the stack
         counts a handle_up that raises Msg.Truncated itself *)
  fp_register : (unit -> fastpath option) -> unit;
      (* offer a fast-path compiler; called at most once, from the
         constructor. The stack invokes the compiler lazily whenever
         the path must be (re)built; [None] means "not fusable right
         now". *)
  fp_register_bottom : (unit -> fp_bottom option) -> unit;
      (* ditto, for the bottom adapter layer. *)
  fp_invalidate : unit -> unit;
      (* tear down any compiled path; the layer must call this when it
         leaves steady state in a way no view event announces (e.g. a
         NAK repair begins, the token moves). Cheap when no path is
         compiled. *)
}

type instance = {
  name : string;
  handle_down : Event.down -> unit;
  handle_up : Event.up -> unit;
  dump : unit -> string list;     (* the dump downcall / focus handle *)
  stop : unit -> unit;            (* cancel timers etc. on destroy *)
  inert : bool;
      (* Declares that both handlers forward every event untouched, so
         the fused fast path may leave this layer out entirely — the
         layer-skipping optimization of Section 10. Only truly inert
         layers (NOOP) may set it. *)
}

type ctor = env -> instance

(* A layer that passes every event through untouched — the mechanical
   form of property *inheritance* (Section 6). NOOP is built from it. *)
let passthrough ~name ?(inert = false) env =
  { name;
    handle_down = env.emit_down;
    handle_up = env.emit_up;
    dump = (fun () -> []);
    stop = (fun () -> ());
    inert }

(* Periodic timer helper: calls [f] every [period] seconds until the
   returned stop function is invoked. *)
let every env ~period f =
  let stopped = ref false in
  let rec arm () =
    if not !stopped then
      ignore
        (env.set_timer ~delay:period (fun () ->
             if not !stopped then begin
               f ();
               arm ()
             end))
  in
  arm ();
  fun () -> stopped := true
