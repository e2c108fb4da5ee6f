(* A group handle: the application's side of one endpoint's membership
   in one group.

   Joining instantiates the endpoint's protocol stack for this group
   (per-group layer state — the "group object" of Section 3). The
   handle records everything the stack delivers, exposes the Table 1
   downcalls, and by default answers FLUSH upcalls with the flush_ok
   downcall so that membership layers can proceed (an application that
   sets [auto_flush_ok:false] must do so itself). *)

open Horus_msg
open Horus_hcpi

type delivery = {
  kind : [ `Cast | `Send ];
  rank : int;
  payload : string;
  meta : Event.meta;
}

type t = {
  endpoint : Endpoint.t;
  world : World.t;
  group : Addr.group;
  stack : Stack.t;
  auto_flush_ok : bool;
  record : bool;  (* benches disable the delivery/event logs *)
  mutable view : View.t option;
  mutable deliveries : delivery list;  (* newest first *)
  mutable views : View.t list;         (* newest first *)
  mutable stability : Event.stability option;
  mutable problems : Addr.endpoint list;
  mutable merge_requests : Event.merge_request list;
  mutable merge_denials : string list;
  mutable lost_messages : int;
  mutable system_errors : string list;
  mutable flushes : int;
  mutable exited : bool;
  mutable destroyed : bool;
  mutable on_up : (Event.up -> unit) option;
}

let record_up t (ev : Event.up) =
  (* Scalar state — the current view, lifecycle flags, counters — is
     always tracked ([record:false] handles still answer {!view},
     {!exited}, {!destroyed}); only the unbounded logs are gated, so
     long-running benchmarks and soaks stay O(1) in memory. *)
  (match ev with
   | Event.U_view v ->
     t.view <- Some v;
     if t.record then t.views <- v :: t.views
   | Event.U_cast (rank, m, meta) ->
     if t.record then
       t.deliveries <-
         { kind = `Cast; rank; payload = Msg.to_string m; meta } :: t.deliveries
   | Event.U_send (rank, m, meta) ->
     if t.record then
       t.deliveries <-
         { kind = `Send; rank; payload = Msg.to_string m; meta } :: t.deliveries
   | Event.U_stable s -> t.stability <- Some s
   | Event.U_problem e -> if t.record then t.problems <- e :: t.problems
   | Event.U_merge_request r ->
     if t.record then t.merge_requests <- r :: t.merge_requests
   | Event.U_merge_denied why ->
     if t.record then t.merge_denials <- why :: t.merge_denials
   | Event.U_lost_message _ -> t.lost_messages <- t.lost_messages + 1
   | Event.U_system_error e ->
     if t.record then t.system_errors <- e :: t.system_errors
   | Event.U_flush _ -> t.flushes <- t.flushes + 1
   | Event.U_exit -> t.exited <- true
   | Event.U_destroy -> t.destroyed <- true
   | Event.U_flush_ok _ | Event.U_leave _ | Event.U_packet _ -> ());
  (match t.on_up with Some f -> f ev | None -> ());
  (* Default flush cooperation, after the user callback so it may
     inspect the event first. *)
  match ev with
  | Event.U_flush _ when t.auto_flush_ok -> Stack.down t.stack Event.D_flush_ok
  | _ -> ()

let join ?contact ?on_up ?(auto_flush_ok = true) ?(record = true) ?(fastpath = false)
    endpoint group =
  let world = Endpoint.world endpoint in
  let gid = Addr.group_id group in
  let rec t =
    lazy
      { endpoint;
        world;
        group;
        stack =
          Stack.create ~engine:(World.engine world) ~endpoint:(Endpoint.addr endpoint) ~group
            ~prng:(Horus_util.Prng.create (Addr.endpoint_id (Endpoint.addr endpoint) + (gid * 1000003)))
            ~transport:(Endpoint.transport endpoint ~gid)
            ~rendezvous:(World.rendezvous world)
            ~storage:(World.storage world)
            ~fastpath
            ~metrics:(World.metrics world)
            ~to_app:(fun ev -> record_up (Lazy.force t) ev)
            (Spec.resolve (Endpoint.spec endpoint));
        auto_flush_ok;
        record;
        view = None;
        deliveries = [];
        views = [];
        stability = None;
        problems = [];
        merge_requests = [];
        merge_denials = [];
        lost_messages = 0;
        system_errors = [];
        flushes = 0;
        exited = false;
        destroyed = false;
        on_up }
  in
  let t = Lazy.force t in
  Endpoint.register_route endpoint ~gid (fun ~src m ->
      Stack.inject_up t.stack (Event.U_packet (src, m)));
  Endpoint.add_crash_hook endpoint (fun () -> Stack.kill t.stack);
  Stack.down t.stack (Event.D_join contact);
  t

(* --- Table 1 downcalls --- *)

let cast_msg t m = Stack.down t.stack (Event.D_cast m)

let cast t payload = cast_msg t (Msg.create payload)

let send_msg t dsts m = Stack.down t.stack (Event.D_send (dsts, m))

let send t dsts payload = send_msg t dsts (Msg.create payload)

let ack t id = Stack.down t.stack (Event.D_ack id)

let mark_stable t id = Stack.down t.stack (Event.D_stable id)

let merge t contact = Stack.down t.stack (Event.D_merge contact)

let merge_granted t req = Stack.down t.stack (Event.D_merge_granted req)

let merge_denied t req = Stack.down t.stack (Event.D_merge_denied req)

let suspect t endpoints = Stack.down t.stack (Event.D_suspect endpoints)

let flush t failed = Stack.down t.stack (Event.D_flush failed)

let flush_ok t = Stack.down t.stack Event.D_flush_ok

let install_view t v = Stack.down t.stack (Event.D_view v)

let leave t = Stack.down t.stack Event.D_leave

let dump t = Stack.dump t.stack

let focus t name = Stack.focus t.stack name

let destroy t =
  Stack.destroy t.stack;
  Endpoint.unregister_route t.endpoint ~gid:(Addr.group_id t.group)

(* --- observers --- *)

let endpoint t = t.endpoint

let addr t = Endpoint.addr t.endpoint

let group t = t.group

let stack t = t.stack

let view t = t.view

let views t = List.rev t.views

let my_rank t =
  match t.view with
  | None -> None
  | Some v -> View.rank_of v (addr t)

let deliveries t = List.rev t.deliveries

let casts t =
  List.filter_map (fun d -> if d.kind = `Cast then Some d.payload else None) (deliveries t)

let clear_deliveries t = t.deliveries <- []

let stability t = t.stability

let problems t = List.rev t.problems

let merge_requests t = List.rev t.merge_requests

let merge_denials t = List.rev t.merge_denials

let lost_messages t = t.lost_messages

let system_errors t = List.rev t.system_errors

let flushes t = t.flushes

let exited t = t.exited

let destroyed t = t.destroyed

let set_on_up t f = t.on_up <- Some f
