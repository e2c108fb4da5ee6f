(* ORDER(causal): causally ordered multicast via vector timestamps.

   Each cast carries the sender's vector clock (one entry per view
   member — the causal timestamps, P13). A message from rank r with
   vector V is deliverable once the receiver has delivered exactly
   V[r] - 1 messages from r and at least V[k] messages from every other
   k: everything the sender had seen when casting. Virtual synchrony
   below lets the vectors reset cleanly at each view. *)

open Horus_msg
open Horus_hcpi

type held = {
  h_rank : int;
  h_vector : int array;
  h_msg : Msg.t;
  h_meta : Event.meta;
}

type state = {
  env : Layer.env;
  mutable my_rank : int;
  mutable vt : int array;     (* vt.(k) = casts delivered from rank k *)
  mutable held : held list;
  mutable delayed : int;      (* stat: deliveries that had to wait *)
}

let push_vector m vt =
  for i = Array.length vt - 1 downto 0 do
    Msg.push_u32 m vt.(i)
  done;
  Msg.push_u16 m (Array.length vt)

let pop_vector m =
  let n = Msg.pop_u16 m in
  Array.init n (fun _ -> Msg.pop_u32 m)

let deliverable t (h : held) =
  h.h_rank >= 0
  && Array.length h.h_vector = Array.length t.vt
  && h.h_vector.(h.h_rank) = t.vt.(h.h_rank) + 1
  && begin
    let ok = ref true in
    Array.iteri (fun k v -> if k <> h.h_rank && v > t.vt.(k) then ok := false) h.h_vector;
    !ok
  end

let rec deliver_ready t =
  match List.find_opt (deliverable t) t.held with
  | Some h ->
    t.held <- List.filter (fun x -> x != h) t.held;
    t.vt.(h.h_rank) <- t.vt.(h.h_rank) + 1;
    t.env.Layer.emit_up (Event.U_cast (h.h_rank, h.h_msg, h.h_meta));
    deliver_ready t
  | None -> ()

let create (_ : Params.t) env =
  let t = { env; my_rank = -1; vt = [||]; held = []; delayed = 0 } in
  let handle_down (ev : Event.down) =
    match ev with
    | Event.D_cast m ->
      if t.my_rank >= 0 then begin
        (* The vector we attach claims this cast as our next one. *)
        let v = Array.copy t.vt in
        v.(t.my_rank) <- v.(t.my_rank) + 1;
        push_vector m v
      end
      else push_vector m [||];
      env.Layer.emit_down (Event.D_cast m)
    | _ -> env.Layer.emit_down ev
  in
  let handle_up (ev : Event.up) =
    match ev with
    | Event.U_cast (rank, m, meta) ->
      let vector = pop_vector m in
      let h = { h_rank = rank; h_vector = vector; h_msg = m; h_meta = meta } in
      if deliverable t h then begin
        t.vt.(rank) <- t.vt.(rank) + 1;
        env.Layer.emit_up (Event.U_cast (rank, m, meta));
        deliver_ready t
      end
      else begin
        t.delayed <- t.delayed + 1;
        t.held <- h :: t.held;
        deliver_ready t
      end
    | Event.U_view v ->
      (* Virtual synchrony: the cut is clean, nothing can remain held. *)
      t.held <- [];
      t.my_rank <- Option.value (View.rank_of v env.Layer.endpoint) ~default:(-1);
      t.vt <- Array.make (View.size v) 0;
      env.Layer.emit_up ev
    | _ -> env.Layer.emit_up ev
  in
  { Layer.name = "ORDER_CAUSAL";
    handle_down;
    handle_up;
    dump =
      (fun () ->
         [ Printf.sprintf "rank=%d held=%d delayed=%d vt=[%s]" t.my_rank (List.length t.held)
             t.delayed
             (String.concat ";" (Array.to_list (Array.map string_of_int t.vt))) ]);
    inert = false;
    stop = (fun () -> ()) }
