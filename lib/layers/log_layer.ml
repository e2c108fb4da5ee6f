(* LOG: tolerance of total crash failures (Figure 1's "logging" type).

   Every cast the layer delivers — plus every cast the local
   application sends — is appended to stable storage under a
   caller-chosen log name before it travels on. When a process restarts
   after a total failure (every member crashed), a fresh stack created
   with the same [name] parameter *replays* the logged deliveries to
   the application right after the first view installs, so the
   application can rebuild its state from its own history.

   The log survives because it lives on the simulated disk
   (Layer.storage), not in the process. [checkpoint] truncates. *)

open Horus_msg
open Horus_hcpi

type state = {
  env : Layer.env;
  key : string;
  replay : bool;
  mutable replayed : bool;
  mutable logged : int;
}

(* Records are "rank payload" with the rank in decimal before the first
   space; payloads are arbitrary bytes after it. *)
let encode ~rank payload = string_of_int rank ^ " " ^ payload

let decode record =
  match String.index_opt record ' ' with
  | None -> None
  | Some i ->
    (match int_of_string_opt (String.sub record 0 i) with
     | Some rank -> Some (rank, String.sub record (i + 1) (String.length record - i - 1))
     | None -> None)

let meta_replayed = "replayed"

let replay_log t =
  if t.replay && not t.replayed then begin
    t.replayed <- true;
    let records = t.env.Layer.storage.Layer.read ~key:t.key in
    List.iter
      (fun record ->
         match decode record with
         | Some (rank, payload) ->
           t.env.Layer.emit_up
             (Event.U_cast (rank, Msg.create payload, [ (meta_replayed, 1) ]))
         | None -> ())
      records
  end

let create params env =
  let t =
    { env;
      key =
        Printf.sprintf "log/%s/g%d"
          (Params.get_string params "name" ~default:"default")
          (Addr.group_id env.Layer.group);
      replay = Params.get_bool params "replay" ~default:true;
      replayed = false;
      logged = 0 }
  in
  let append ~rank payload =
    t.logged <- t.logged + 1;
    env.Layer.storage.Layer.append ~key:t.key (encode ~rank payload)
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_view _ ->
      (* Replay persisted history once, before live traffic of the
         first view reaches the application. *)
      env.Layer.emit_up ev;
      replay_log t
    | Event.U_cast (rank, m, meta) ->
      append ~rank (Msg.to_string m);
      env.Layer.emit_up (Event.U_cast (rank, m, meta))
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "LOG";
    handle_down = env.Layer.emit_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "key=%s logged=%d replayed=%b" t.key t.logged t.replayed ]);
    inert = false;
    stop = (fun () -> ()) }
