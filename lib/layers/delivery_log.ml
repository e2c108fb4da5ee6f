(* Per-view delivery bookkeeping shared by the membership-family layers
   (MBRSHIP, BMS via MBRSHIP, FLUSH, VSS): contiguous per-origin
   delivery with an out-of-order stash (forwarded copies can race
   direct copies), an unstable-message store for flush recovery, and
   the wire codecs for delivered-vectors and message copies.

   Everything is kept per origin, in a lane: the next expected
   sequence number, the unstable store as a sequence-indexed ring from
   the stability floor up, and the stash of early arrivals. A view has
   a handful of origins, so a lane is found by a scan of a small
   array. Delivering a cast is then a ring store and an upcall, and a
   stability GC frees the entries below each lane's floor without
   looking at the rest: nothing scales with the size of the store.
   The store keeps frozen aliases of the delivered messages
   (Msg.freeze), not copies: whatever the application later does to a
   delivered message, the alias's bytes stay as delivered, and they
   become strings only when a flush asks for them.
   The store only ever holds the sequence numbers delivered (or, for
   our own casts, handed out) in order, so its ring spans no more than
   the unstable casts. The stash is keyed by whatever sequence number
   arrived, so it stays a hash table: a far-ahead number costs one
   entry, not a ring spanning the gap. *)

open Horus_msg
open Horus_hcpi

module Ring = Horus_util.Seq_ring

type stashed = { st_rank : int; st_msg : Msg.t; st_meta : Event.meta }

type lane = {
  origin : int;
  mutable next : int;                (* next expected seq; 0 until a delivery *)
  store : Msg.t Ring.t;              (* seq -> frozen payload, from the GC floor up *)
  stash : (int, stashed) Hashtbl.t;  (* seq -> early arrival, above [next] *)
}

type t = {
  emit_up : Event.up -> unit;
  mutable lanes : lane array;  (* the first [n] are in use *)
  mutable n : int;
  mutable stashed : int;       (* over all lanes *)
}

let create ~emit_up = { emit_up; lanes = [||]; n = 0; stashed = 0 }

(* Fills vacated store slots; never read or written. *)
let vacant = Msg.adopt Bytes.empty ~off:0 ~len:0

let reset t =
  t.lanes <- [||];
  t.n <- 0;
  t.stashed <- 0

let rec index_from t origin i =
  if i >= t.n then -1
  else if t.lanes.(i).origin = origin then i
  else index_from t origin (i + 1)

let lane t origin =
  let i = index_from t origin 0 in
  if i >= 0 then t.lanes.(i)
  else begin
    let l = { origin; next = 0; store = Ring.create ~dummy:vacant; stash = Hashtbl.create 1 } in
    if t.n = Array.length t.lanes then begin
      let lanes = Array.make (Int.max 4 (2 * t.n)) l in
      Array.blit t.lanes 0 lanes 0 t.n;
      t.lanes <- lanes
    end;
    t.lanes.(t.n) <- l;
    t.n <- t.n + 1;
    l
  end

let record t ~origin ~seq m = Ring.set (lane t origin).store seq (Msg.freeze m)

let size t =
  let total = ref 0 in
  for i = 0 to t.n - 1 do
    total := !total + Ring.length t.lanes.(i).store
  done;
  !total

let next_expected t origin =
  let i = index_from t origin 0 in
  if i < 0 then 0 else t.lanes.(i).next

let ooo_pending t = t.stashed

(* The fused-delivery commit: exactly [accept]'s in-order branch with
   an empty stash — advance the origin's lane and log the payload. *)
let advance t ~origin ~seq ~payload =
  let l = lane t origin in
  l.next <- seq + 1;
  Ring.set l.store seq (Msg.freeze payload)

(* Deliver [m], the lane's next expected cast, then whatever the stash
   holds right behind it. *)
let rec deliver_run t l ~seq ~rank m meta =
  l.next <- seq + 1;
  Ring.set l.store seq (Msg.freeze m);
  t.emit_up (Event.U_cast (rank, m, meta));
  let seq = seq + 1 in
  if Hashtbl.length l.stash > 0 then
    match Hashtbl.find l.stash seq with
    | s ->
      Hashtbl.remove l.stash seq;
      t.stashed <- t.stashed - 1;
      deliver_run t l ~seq ~rank:s.st_rank s.st_msg s.st_meta
    | exception Not_found -> ()

let accept t ~origin ~seq ~rank m meta =
  let l = lane t origin in
  if seq = l.next then deliver_run t l ~seq ~rank m meta
  else if seq > l.next then begin
    if not (Hashtbl.mem l.stash seq) then t.stashed <- t.stashed + 1;
    Hashtbl.replace l.stash seq { st_rank = rank; st_msg = m; st_meta = meta }
  end

(* Lanes in origin order, for the sorted flush outputs. *)
let sorted_lanes t =
  List.sort
    (fun a b -> Int.compare a.origin b.origin)
    (Array.to_list (Array.sub t.lanes 0 t.n))

(* Per-origin next-expected pairs, sorted: the receive vector a member
   reports during a flush. An origin appears once something of it was
   delivered. *)
let vector t =
  List.filter_map (fun l -> if l.next > 0 then Some (l.origin, l.next) else None) (sorted_lanes t)

let fold_store f t acc =
  List.fold_left
    (fun acc l ->
       let acc = ref acc in
       Ring.iter (fun s p -> acc := f l.origin s p !acc) l.store;
       !acc)
    acc (sorted_lanes t)

(* Every logged (unstable) message, sorted: the copies a member offers
   during a flush. *)
let copies t = List.rev (fold_store (fun o s p acc -> (o, s, Msg.to_string p) :: acc) t [])

(* Each lane's floor is asked for once; only the entries below it are
   visited. *)
let gc t ~floor_of =
  for i = 0 to t.n - 1 do
    let l = t.lanes.(i) in
    if not (Ring.is_empty l.store) then Ring.drop_below l.store (floor_of l.origin)
  done

(* --- wire codecs --- *)

let push_pairs m pairs =
  Wire.push_list (fun m (a, b) -> Msg.push_u32 m b; Msg.push_u32 m a) m pairs

let pop_pairs m =
  Wire.pop_list (fun m -> let a = Msg.pop_u32 m in let b = Msg.pop_u32 m in (a, b)) m

let push_copies m cs =
  Wire.push_list
    (fun m (o, s, p) -> Msg.push_string m p; Msg.push_u32 m s; Msg.push_u32 m o)
    m cs

let pop_copies m =
  Wire.pop_list
    (fun m ->
       let o = Msg.pop_u32 m in
       let s = Msg.pop_u32 m in
       let p = Msg.pop_string m in
       (o, s, p))
    m

(* Maximal per-origin cut over a set of receive vectors, and the union
   message store from the offered copies — what a flush coordinator
   computes before forwarding. *)
let cut_and_union ~own replies =
  let cut : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let everything : (int * int, string) Hashtbl.t = Hashtbl.create 64 in
  fold_store (fun o s p () -> Hashtbl.replace everything (o, s) (Msg.to_string p)) own ();
  List.iter
    (fun (vec, cs) ->
       List.iter
         (fun (o, next) ->
            if next > Option.value (Hashtbl.find_opt cut o) ~default:0 then
              Hashtbl.replace cut o next)
         vec;
       List.iter (fun (o, s, p) -> Hashtbl.replace everything (o, s) p) cs)
    replies;
  (cut, everything)

(* The copies a particular replier is missing, given the cut. *)
let missing_for ~cut ~everything vec =
  let missing = ref [] in
  Hashtbl.iter
    (fun o target ->
       let have = Option.value (List.assoc_opt o vec) ~default:0 in
       for s = have to target - 1 do
         match Hashtbl.find_opt everything (o, s) with
         | Some p -> missing := (o, s, p) :: !missing
         | None -> ()
       done)
    cut;
  List.sort compare !missing
