(* MERGE: automatic view merging (P16).

   Coordinators of group partitions register with the rendezvous
   (resource location) service. This layer, running above a membership
   layer, periodically asks the service whether a foreign partition of
   its group exists; when it finds one with an older coordinator, it
   issues the merge downcall toward it, and the membership layer does
   the heavy lifting. The always-merge-into-the-older-side policy makes
   concurrent healing deterministic and loop-free. *)

open Horus_msg
open Horus_hcpi

type state = {
  env : Layer.env;
  probe_period : float;
  backoff : float;
  mutable view : View.t option;
  mutable my_rank : int;
  mutable cooldown_until : float;
  mutable stop_timer : unit -> unit;
  mutable merges_started : int;
}

let probe t =
  match t.view with
  | Some v
    when t.my_rank = 0
         && Horus_sim.Engine.now t.env.Layer.engine >= t.cooldown_until ->
    let me = t.env.Layer.endpoint in
    let foreign =
      List.filter
        (fun c -> (not (Addr.equal_endpoint c me)) && not (View.mem v c))
        (t.env.Layer.rendezvous.Layer.lookup t.env.Layer.group)
    in
    (match foreign with
     | [] -> ()
     | c :: _ ->
       (* Oldest foreign coordinator; merge toward it only if it is our
          elder, otherwise its own MERGE layer will come to us. *)
       if Addr.compare_endpoint c me < 0 then begin
         t.merges_started <- t.merges_started + 1;
         t.cooldown_until <- Horus_sim.Engine.now t.env.Layer.engine +. t.backoff;
         t.env.Layer.emit_down (Event.D_merge c)
       end)
  | Some _ | None -> ()

let create params env =
  let t =
    { env;
      probe_period = Params.get_float params "probe_period" ~default:0.25;
      backoff = Params.get_float params "backoff" ~default:1.0;
      view = None;
      my_rank = -1;
      cooldown_until = 0.0;
      stop_timer = (fun () -> ());
      merges_started = 0 }
  in
  t.stop_timer <- Layer.every env ~period:t.probe_period (fun () -> probe t);
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_view v ->
      t.view <- Some v;
      t.my_rank <- Option.value (View.rank_of v env.Layer.endpoint) ~default:(-1);
      env.Layer.emit_up ev
    | Event.U_merge_denied _ ->
      (* Busy or refused; retry after the backoff. *)
      t.cooldown_until <- Horus_sim.Engine.now env.Layer.engine +. t.backoff;
      env.Layer.emit_up ev
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "MERGE";
    handle_down = env.Layer.emit_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "rank=%d merges_started=%d" t.my_rank t.merges_started ]);
    inert = false;
    stop = (fun () -> t.stop_timer ()) }
