(* Stack composition engine (Sections 3 and 4).

   A stack is an ordered array of layer instances, index 0 at the top.
   All activity — downcalls from the application, packets injected at
   the bottom, timer callbacks — is funneled through one FIFO event
   queue per stack and drained in order. This is the event-queue
   scheduling model the paper describes as the simpler alternative to
   intra-stack threading (and the one Section 10 says they are moving
   to): within a stack there is no concurrency to lock against, and
   runs are deterministic.

   Every layer crossing passes through the queue, so the queue boxes
   nothing. It is four {!Horus_util.Fifo} rings: one of int codes,
   which keeps the global order, and one each for the downcalls, the
   upcalls and the thunks those codes name. A code is
   [kind lor (layer lsl 3)]; each layer's emit closures compute theirs
   once, at creation. Processing pops a code, then the head of the ring
   its kind names: each ring holds its events in the order of their
   codes, so the heads always match. *)

let k_down = 0      (* downcall to layer [code lsr 3]; from the downs ring *)
let k_up = 1        (* upcall to layer [code lsr 3]; from the ups ring *)
let k_to_app = 2    (* upcall leaving the top; from the ups ring *)
let k_to_below = 3  (* downcall leaving the bottom; from the downs ring *)
let k_thunk = 4     (* from the thunks ring *)

(* Per-layer crossing counters (Section 10's "indirect procedure call
   each time a layer boundary is crossed", made first-class data).
   Counters are registered by layer *name*, so all stacks sharing a
   registry — every member of a world — accumulate into the same
   per-layer totals. *)
type obs = {
  down_crossings : Horus_obs.Metrics.counter array;  (* hcpi.down.<LAYER> *)
  up_crossings : Horus_obs.Metrics.counter array;    (* hcpi.up.<LAYER> *)
  app_deliveries : Horus_obs.Metrics.counter;        (* hcpi.to_app *)
  below_emissions : Horus_obs.Metrics.counter;       (* hcpi.to_below *)
}

(* A compiled fast path: the participating (non-inert, non-bottom)
   layers' fused handlers in top-to-bottom order, plus the bottom
   adapter's framing pair. Recomputed lazily after any dirtying event
   (view change, explicit invalidation). *)
type fp_path = {
  fps : Layer.fastpath array;  (* top to bottom, bottom adapter excluded *)
  fpb : Layer.fp_bottom;
  fp_depth : float;            (* crossings per fused cast, boxed once here *)
}

type fp_obs = {
  fp_send_fused : Horus_obs.Metrics.counter;
  fp_send_fallback : Horus_obs.Metrics.counter;
  fp_deliver_fused : Horus_obs.Metrics.counter;
  fp_deliver_fallback : Horus_obs.Metrics.counter;
  fp_compiles : Horus_obs.Metrics.counter;
  fp_invalidations : Horus_obs.Metrics.counter;
  fp_crossings : Horus_obs.Metrics.histogram;  (* layer crossings per cast *)
  fp_full_depth : float;  (* crossings per cast on the full path, boxed once *)
}

type t = {
  mutable layers : Layer.instance array;  (* 0 = top *)
  names : string array;
  codes : int Horus_util.Fifo.t;
  downs : Event.down Horus_util.Fifo.t;
  ups : Event.up Horus_util.Fifo.t;
  thunks : (unit -> unit) Horus_util.Fifo.t;
  mutable running : bool;
  mutable destroyed : bool;
  mutable processed : int;
  obs : obs option;
  metrics : Horus_obs.Metrics.t option;
  to_app : Event.up -> unit;
  to_below : Event.down -> unit;
  (* --- fused fast path (Section 10's remedies, combined) --- *)
  fp_enabled : bool;
  fp_send_compilers : (unit -> Layer.fastpath option) option array;
  fp_bottom_compilers : (unit -> Layer.fp_bottom option) option array;
  mutable fp_path : fp_path option;
  mutable fp_dirty : bool;                  (* recompile before next use *)
  fp_obs : fp_obs option;
}

let default_to_below ev =
  (* An event fell off the bottom of a stack with no bottom adapter;
     that is a mis-configured stack, not a runtime condition. *)
  invalid_arg ("Stack: downcall " ^ Event.down_name ev ^ " reached the bottom unhandled")

(* One refused event at layer [i]. The counter is registered on first
   use, so a run that rejects nothing leaves the registry as it was. *)
let reject t i =
  match t.metrics with
  | None -> ()
  | Some m ->
    Horus_obs.Metrics.incr (Horus_obs.Metrics.counter m ("layers." ^ t.names.(i) ^ ".rejected"))

let process t =
  t.processed <- t.processed + 1;
  let code = Horus_util.Fifo.pop t.codes in
  let kind = code land 7 and i = code lsr 3 in
  if kind = k_up then begin
    let ev = Horus_util.Fifo.pop t.ups in
    (match t.obs with Some o -> Horus_obs.Metrics.incr o.up_crossings.(i) | None -> ());
    (* Layer headers are network input: a handler that pops past the
       end of a short or garbled message drops it here, counted, and
       the queue goes on. *)
    try t.layers.(i).Layer.handle_up ev with Horus_msg.Msg.Truncated _ -> reject t i
  end
  else if kind = k_down then begin
    let ev = Horus_util.Fifo.pop t.downs in
    (match t.obs with Some o -> Horus_obs.Metrics.incr o.down_crossings.(i) | None -> ());
    t.layers.(i).Layer.handle_down ev
  end
  else if kind = k_to_app then begin
    let ev = Horus_util.Fifo.pop t.ups in
    (match t.obs with Some o -> Horus_obs.Metrics.incr o.app_deliveries | None -> ());
    (* A view reaching the application means membership settled into a
       new epoch: any compiled fast path is stale. *)
    (match ev with
     | Event.U_view _ when t.fp_enabled ->
       t.fp_path <- None;
       t.fp_dirty <- true
     | _ -> ());
    t.to_app ev
  end
  else if kind = k_to_below then begin
    let ev = Horus_util.Fifo.pop t.downs in
    (match t.obs with Some o -> Horus_obs.Metrics.incr o.below_emissions | None -> ());
    t.to_below ev
  end
  else (Horus_util.Fifo.pop t.thunks) ()

let drain t =
  if not t.running then begin
    t.running <- true;
    match
      while not (Horus_util.Fifo.is_empty t.codes) do
        process t
      done
    with
    | () -> t.running <- false
    | exception e ->
      t.running <- false;
      raise e
  end

let enqueue_down t code ev =
  if not t.destroyed then begin
    Horus_util.Fifo.push t.downs ev;
    Horus_util.Fifo.push t.codes code;
    drain t
  end

let enqueue_up t code ev =
  if not t.destroyed then begin
    Horus_util.Fifo.push t.ups ev;
    Horus_util.Fifo.push t.codes code;
    drain t
  end

let enqueue_thunk t f =
  if not t.destroyed then begin
    Horus_util.Fifo.push t.thunks f;
    Horus_util.Fifo.push t.codes k_thunk;
    drain t
  end

let clear_queue t =
  Horus_util.Fifo.clear t.codes;
  Horus_util.Fifo.clear t.downs;
  Horus_util.Fifo.clear t.ups;
  Horus_util.Fifo.clear t.thunks

(* --- the fused fast path -------------------------------------------

   When a stack is in steady state, a cast crosses every layer twice
   (down on send, up on delivery) through the event queue — the
   "indirect procedure call each time a layer boundary is crossed"
   that Section 10 identifies as the dominant cost. The fast path
   compiles the per-layer crossings into one closure pair and runs
   steady-state casts through them directly. The fused send pushes
   every header onto the application's own message, as the full path
   does, so the body is copied once, into the frame.

   Safety comes from the check/commit split (see Layer.fastpath): a
   cast is fused only when every participating layer agrees, *before*
   any outcome-visible mutation, that the event is the undisturbed
   common case. Any disagreement falls back to the full stack, which
   re-executes the event from scratch — so a conservative check is
   always sound. The path is recompiled lazily after view changes and
   explicit invalidations (NAK repair, token handover, flush). *)

let fp_mark_dirty t =
  if t.fp_enabled then begin
    t.fp_path <- None;
    t.fp_dirty <- true
  end

let fp_invalidate_path t =
  if t.fp_enabled then begin
    (match t.fp_path, t.fp_obs with
     | Some _, Some o -> Horus_obs.Metrics.incr o.fp_invalidations
     | _ -> ());
    fp_mark_dirty t
  end

(* (Re)compile: every non-inert layer above the bottom must offer a
   fused form right now, and the bottom adapter must offer its framing
   pair. Inert layers are skipped outright — they forward everything
   untouched, so omitting them is outcome-equivalent. A failed compile
   leaves the path empty; it is retried on the next dirtying event
   (every transition that could enable fusing involves one). *)
let fp_compile t =
  t.fp_dirty <- false;
  t.fp_path <- None;
  let bottom = Array.length t.layers - 1 in
  match t.fp_bottom_compilers.(bottom) with
  | None -> ()
  | Some compile_bottom ->
    (match compile_bottom () with
     | None -> ()
     | Some fpb ->
       let ok = ref true in
       let acc = ref [] in
       for i = bottom - 1 downto 0 do
         if !ok && not t.layers.(i).Layer.inert then
           match t.fp_send_compilers.(i) with
           | None -> ok := false
           | Some c ->
             (match c () with
              | None -> ok := false
              | Some fp -> acc := fp :: !acc)
       done;
       if !ok then begin
         let fps = Array.of_list !acc in
         t.fp_path <- Some { fps; fpb; fp_depth = float_of_int (Array.length fps + 1) };
         match t.fp_obs with
         | Some o -> Horus_obs.Metrics.incr o.fp_compiles
         | None -> ()
       end)

(* The splice precondition: fused events may only replace queue
   processing when the queue has nothing in flight — otherwise
   ordering relative to queued events would change. *)
let fp_ready t =
  t.fp_enabled && not t.destroyed && not t.running
  && Horus_util.Fifo.is_empty t.codes
  && begin
    if t.fp_dirty then fp_compile t;
    t.fp_path <> None
  end

(* Index walks, not [Array.for_all]/[Array.iter] with a lambda: the
   fused send allocates no closure. *)
let rec fp_send_ready (fps : Layer.fastpath array) ~len i =
  i >= Array.length fps
  || (fps.(i).Layer.fp_send_ready ~len && fp_send_ready fps ~len (i + 1))

let fp_try_send t m =
  fp_ready t
  && match t.fp_path with
     | None -> false
     | Some p ->
       fp_send_ready p.fps ~len:(Horus_msg.Msg.length m) 0
       && p.fpb.Layer.fpb_send_ready ()
       && begin
         (match t.fp_obs with
          | Some o ->
            Horus_obs.Metrics.incr o.fp_send_fused;
            Horus_obs.Metrics.observe o.fp_crossings p.fp_depth
          | None -> ());
         (* Commit: headers pushed top to bottom onto the application's
            message, then the bottom adapter's own cast handler frames
            it once, transmits, and queues the local copy. *)
         for i = 0 to Array.length p.fps - 1 do
           p.fps.(i).Layer.fp_send m
         done;
         p.fpb.Layer.fpb_cast m;
         true
       end

(* The layers' delivery votes, from index [i] (the bottom) up. *)
let rec fp_deliver_check (fps : Layer.fastpath array) ~src m i =
  i < 0 || (fps.(i).Layer.fp_deliver_check ~src m && fp_deliver_check fps ~src m (i - 1))

let fp_try_deliver t ~src m =
  fp_ready t
  && match t.fp_path with
     | None -> false
     | Some p ->
       let off = Horus_msg.Msg.offset m and len = Horus_msg.Msg.length m in
       let nf = Array.length p.fps in
       (* Check phase: pops only. The bottom adapter strips the
          envelope and names the sender's rank, then the layers vote.
          A short or foreign packet simply falls back — the full stack
          re-parses from the restored position. *)
       let rank =
         try
           let rank = p.fpb.Layer.fpb_parse ~src m in
           if rank >= 0 && fp_deliver_check p.fps ~src m (nf - 1) then rank else -1
         with Horus_msg.Msg.Truncated _ -> -1
       in
       if rank < 0 then begin
         Horus_msg.Msg.restore m ~off ~len;
         false
       end
       else begin
         (* Commit phase, in full-path effect order: bottom first. *)
         let meta = p.fpb.Layer.fpb_parsed rank in
         for j = nf - 1 downto 0 do
           p.fps.(j).Layer.fp_deliver_commit m
         done;
         (match t.fp_obs with
          | Some o ->
            Horus_obs.Metrics.incr o.fp_deliver_fused;
            Horus_obs.Metrics.observe o.fp_crossings p.fp_depth
          | None -> ());
         t.to_app (Event.U_cast (rank, m, meta));
         true
       end

let create ~engine ~endpoint ~group ~prng ~transport ~rendezvous
    ?(storage = Layer.null_storage) ?(fastpath = false)
    ?metrics ~to_app ?(to_below = default_to_below) spec =
  let n = List.length spec in
  if n = 0 then invalid_arg "Stack.create: empty spec";
  let names = Array.of_list (List.map (fun (name, _, _) -> name) spec) in
  let obs =
    Option.map
      (fun m ->
         { down_crossings =
             Array.map (fun name -> Horus_obs.Metrics.counter m ("hcpi.down." ^ name)) names;
           up_crossings =
             Array.map (fun name -> Horus_obs.Metrics.counter m ("hcpi.up." ^ name)) names;
           app_deliveries = Horus_obs.Metrics.counter m "hcpi.to_app";
           below_emissions = Horus_obs.Metrics.counter m "hcpi.to_below" })
      metrics
  in
  let fp_obs =
    if not fastpath then None
    else
      Option.map
        (fun m ->
           { fp_send_fused = Horus_obs.Metrics.counter m "fastpath.send_fused";
             fp_send_fallback = Horus_obs.Metrics.counter m "fastpath.send_fallback";
             fp_deliver_fused = Horus_obs.Metrics.counter m "fastpath.deliver_fused";
             fp_deliver_fallback =
               Horus_obs.Metrics.counter m "fastpath.deliver_fallback";
             fp_compiles = Horus_obs.Metrics.counter m "fastpath.compiles";
             fp_invalidations = Horus_obs.Metrics.counter m "fastpath.invalidations";
             fp_crossings =
               Horus_obs.Metrics.histogram
                 ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32. |]
                 m "fastpath.crossings_per_cast";
             fp_full_depth = float_of_int n })
        metrics
  in
  let t =
    { layers = [||];
      names;
      codes = Horus_util.Fifo.create ~dummy:0;
      downs = Horus_util.Fifo.create ~dummy:Event.D_leave;
      ups = Horus_util.Fifo.create ~dummy:Event.U_exit;
      thunks = Horus_util.Fifo.create ~dummy:ignore;
      running = false;
      destroyed = false;
      processed = 0;
      obs;
      metrics;
      to_app;
      to_below;
      fp_enabled = fastpath;
      fp_send_compilers = Array.make n None;
      fp_bottom_compilers = Array.make n None;
      fp_path = None;
      fp_dirty = fastpath;  (* compile lazily, once the stack settles *)
      fp_obs }
  in
  let make i (_, params, (ctor : Params.t -> Layer.ctor)) =
    let up_code = if i = 0 then k_to_app else k_up lor ((i - 1) lsl 3) in
    let down_code = if i + 1 >= n then k_to_below else k_down lor ((i + 1) lsl 3) in
    let emit_up ev = enqueue_up t up_code ev in
    let emit_down ev = enqueue_down t down_code ev in
    let set_timer ~delay f =
      Horus_sim.Engine.schedule engine ~delay (fun () -> enqueue_thunk t f)
    in
    let env =
      { Layer.engine; endpoint; group;
        prng = Horus_util.Prng.copy prng;
        transport; rendezvous; storage; metrics; emit_up; emit_down; set_timer;
        reject = (fun () -> reject t i);
        fp_register = (fun c -> t.fp_send_compilers.(i) <- Some c);
        fp_register_bottom = (fun c -> t.fp_bottom_compilers.(i) <- Some c);
        fp_invalidate = (fun () -> fp_invalidate_path t) }
    in
    ctor params env
  in
  t.layers <- Array.of_list (List.mapi make spec);
  t

let depth t = Array.length t.layers

let processed t = t.processed

let layer_names t = Array.to_list t.names

(* Application-level downcall: enters at the top. Casts try the
   fused path first; everything else — and any cast the path declines
   — takes the full queue, with views dirtying the compiled path on
   the way in. *)
let down t ev =
  (match ev with Event.D_view _ -> fp_mark_dirty t | _ -> ());
  let fused = match ev with Event.D_cast m -> fp_try_send t m | _ -> false in
  if not fused then begin
    (match ev, t.fp_obs with
     | Event.D_cast _, Some o ->
       Horus_obs.Metrics.incr o.fp_send_fallback;
       Horus_obs.Metrics.observe o.fp_crossings o.fp_full_depth
     | _ -> ());
    enqueue_down t k_down ev
  end

(* Network ingress: enters at the bottom layer as an upcall; packets
   try the fused delivery path first. *)
let inject_up t ev =
  let fused =
    match ev with Event.U_packet (src, m) -> fp_try_deliver t ~src m | _ -> false
  in
  if not fused then begin
    (match ev, t.fp_obs with
     | Event.U_packet _, Some o ->
       Horus_obs.Metrics.incr o.fp_deliver_fallback;
       Horus_obs.Metrics.observe o.fp_crossings o.fp_full_depth
     | _ -> ());
    enqueue_up t (k_up lor ((Array.length t.layers - 1) lsl 3)) ev
  end

(* Run a thunk under the stack's event-queue discipline. *)
let post t f = enqueue_thunk t f

(* The focus downcall of Table 1: obtain a handle on one layer. *)
let focus t name =
  let rec loop i =
    if i >= Array.length t.names then None
    else if t.names.(i) = name then Some t.layers.(i)
    else loop (i + 1)
  in
  loop 0

let dump t =
  Array.to_list t.layers
  |> List.concat_map (fun (l : Layer.instance) ->
      List.map (fun line -> l.Layer.name ^ ": " ^ line) (l.Layer.dump ()))

let destroyed t = t.destroyed

(* Crash semantics: stop everything without notifying the application —
   a crashed process does not observe its own crash. *)
let kill t =
  if not t.destroyed then begin
    Array.iter (fun (l : Layer.instance) -> l.Layer.stop ()) t.layers;
    t.destroyed <- true;
    clear_queue t
  end

let destroy t =
  if not t.destroyed then begin
    Array.iter (fun (l : Layer.instance) -> l.Layer.stop ()) t.layers;
    t.to_app Event.U_destroy;
    t.destroyed <- true;
    clear_queue t
  end
