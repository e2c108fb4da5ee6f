(* Chaos: a fault-injecting wrapper around any Backend.

   The narrow waist is the right place for network adversity: every
   datagram — UDP or in-process loopback — passes through one [send],
   so one wrapper gives the whole stack drop, duplication, reordering,
   delay, corruption and one-way partitions, without either the
   backend below or the protocol layers above knowing.

   All randomness flows through one seeded Prng and every delayed or
   reordered release rides the shared event engine, so under virtual
   time a (profile, seed) pair replays byte-identically — the same
   property that makes Scenario runs shrinkable — while under a
   wall-clock Driver the identical profile produces real, wall-time
   faults. The profile serializes to JSON so a failing soak run can
   commit its adversary next to its schedule (see lib/check).

   Fault semantics, in decision order per datagram:
     - partition: a one-way (from rank, to rank) block, timed from the
       controller's creation (profile) or toggled at runtime (API);
       blocked datagrams vanish, as across a real partition.
     - drop: the datagram vanishes.
     - corrupt: one uniformly chosen bit flips; the CRC in the frame
       codec above must catch it (it surfaces as a bad_frame, never as
       a delivered payload).
     - duplicate: an extra copy is forwarded, uniformly delayed within
       [dup_delay].
     - reorder: the datagram is parked in a bounded holdback queue and
       released only after [reorder_window] later sends overtake it
       (or [reorder_flush] seconds, whichever comes first).
     - delay: forwarding is postponed by an exponential sample with
       mean [delay_mean], clamped to [delay_max].

   Note that partitions are evaluated when the datagram enters the
   wrapper, not when a delayed copy finally forwards — a datagram that
   made it onto the wire before the partition started is considered in
   flight, not blocked. *)

module Json = Horus_obs.Json
module Prng = Horus_util.Prng
module Engine = Horus_sim.Engine

type partition = {
  pt_from : int;           (* sender rank *)
  pt_to : int;             (* receiver rank *)
  pt_start : float;        (* seconds after controller creation *)
  pt_stop : float option;  (* heal time; None = never heals *)
}

type profile = {
  drop : float;
  duplicate : float;
  dup_delay : float;
  reorder : float;
  reorder_window : int;
  reorder_flush : float;
  delay : float;
  delay_mean : float;
  delay_max : float;
  corrupt : float;
  partitions : partition list;
}

let default =
  { drop = 0.0;
    duplicate = 0.0;
    dup_delay = 0.001;
    reorder = 0.0;
    reorder_window = 4;
    reorder_flush = 0.05;
    delay = 0.0;
    delay_mean = 0.005;
    delay_max = 0.05;
    corrupt = 0.0;
    partitions = [] }

let is_quiet p =
  p.drop = 0.0 && p.duplicate = 0.0 && p.reorder = 0.0 && p.delay = 0.0
  && p.corrupt = 0.0 && p.partitions = []

type stats = {
  mutable s_forwarded : int;   (* datagrams passed to the wrapped backend *)
  mutable s_dropped : int;
  mutable s_duplicated : int;
  mutable s_reordered : int;
  mutable s_delayed : int;
  mutable s_corrupted : int;
  mutable s_blocked : int;     (* eaten by a partition *)
}

type t = {
  engine : Engine.t;
  profile : profile;
  prng : Prng.t;
  t0 : float;                  (* engine time at creation; partition origin *)
  rank_of : string -> int option;
  stats : stats;
  mutable blocks : (int * int) list;  (* runtime one-way blocks *)
}

let create ~engine ?peers ~seed profile =
  if profile.drop < 0.0 || profile.drop > 1.0 then invalid_arg "Chaos.create: drop";
  if profile.duplicate < 0.0 || profile.duplicate > 1.0 then
    invalid_arg "Chaos.create: duplicate";
  if profile.reorder < 0.0 || profile.reorder > 1.0 then invalid_arg "Chaos.create: reorder";
  if profile.delay < 0.0 || profile.delay > 1.0 then invalid_arg "Chaos.create: delay";
  if profile.corrupt < 0.0 || profile.corrupt > 1.0 then invalid_arg "Chaos.create: corrupt";
  if profile.reorder_window < 1 then invalid_arg "Chaos.create: reorder_window must be >= 1";
  { engine;
    profile;
    prng = Prng.create seed;
    t0 = Engine.now engine;
    rank_of =
      (match peers with
       | Some book -> fun addr -> Peers.rank_of book ~addr
       | None -> fun _ -> None);
    stats =
      { s_forwarded = 0; s_dropped = 0; s_duplicated = 0; s_reordered = 0; s_delayed = 0;
        s_corrupted = 0; s_blocked = 0 };
    blocks = [] }

let stats t = t.stats

let profile t = t.profile

(* --- partitions --- *)

let block t ~from_rank ~to_rank =
  if not (List.mem (from_rank, to_rank) t.blocks) then
    t.blocks <- (from_rank, to_rank) :: t.blocks

let unblock t ~from_rank ~to_rank =
  t.blocks <- List.filter (fun b -> b <> (from_rank, to_rank)) t.blocks

let heal t = t.blocks <- []

let is_blocked t ~from_rank ~to_rank =
  List.mem (from_rank, to_rank) t.blocks
  || (let elapsed = Engine.now t.engine -. t.t0 in
      List.exists
        (fun p ->
           p.pt_from = from_rank && p.pt_to = to_rank && elapsed >= p.pt_start
           && (match p.pt_stop with None -> true | Some stop -> elapsed < stop))
        t.profile.partitions)

(* --- the wrapper --- *)

type held = {
  h_dest : string;
  h_payload : Bytes.t;
  mutable h_left : int;     (* later sends still to overtake this one *)
  mutable h_done : bool;
}

let wrap ?rank t (b : Backend.t) =
  let my_rank =
    match rank with Some r -> Some r | None -> t.rank_of b.Backend.local_addr
  in
  let forward ~dest payload =
    t.stats.s_forwarded <- t.stats.s_forwarded + 1;
    b.Backend.send ~dest payload
  in
  let held : held list ref = ref [] in
  let release h =
    if not h.h_done then begin
      h.h_done <- true;
      forward ~dest:h.h_dest h.h_payload
    end
  in
  (* Every send overtakes the parked datagrams by one. *)
  let tick_held () =
    if !held <> [] then
      held :=
        List.filter
          (fun h ->
             if h.h_done then false
             else begin
               h.h_left <- h.h_left - 1;
               if h.h_left <= 0 then begin
                 release h;
                 false
               end
               else true
             end)
          !held
  in
  let p = t.profile in
  let send ~dest payload =
    let blocked =
      match (my_rank, t.rank_of dest) with
      | Some f, Some r -> is_blocked t ~from_rank:f ~to_rank:r
      | _ -> false
    in
    if blocked then t.stats.s_blocked <- t.stats.s_blocked + 1
    else if p.drop > 0.0 && Prng.chance t.prng p.drop then
      t.stats.s_dropped <- t.stats.s_dropped + 1
    else begin
      let payload =
        if p.corrupt > 0.0 && Bytes.length payload > 0 && Prng.chance t.prng p.corrupt
        then begin
          t.stats.s_corrupted <- t.stats.s_corrupted + 1;
          let garbled = Bytes.copy payload in
          let bit = Prng.int t.prng (8 * Bytes.length garbled) in
          let byte = bit / 8 in
          Bytes.set_uint8 garbled byte
            (Bytes.get_uint8 garbled byte lxor (1 lsl (bit mod 8)));
          garbled
        end
        else payload
      in
      if p.duplicate > 0.0 && Prng.chance t.prng p.duplicate then begin
        t.stats.s_duplicated <- t.stats.s_duplicated + 1;
        let copy = Bytes.copy payload in
        let lag = if p.dup_delay > 0.0 then Prng.float t.prng p.dup_delay else 0.0 in
        ignore (Engine.schedule t.engine ~delay:lag (fun () -> forward ~dest copy))
      end;
      if p.reorder > 0.0 && Prng.chance t.prng p.reorder then begin
        t.stats.s_reordered <- t.stats.s_reordered + 1;
        tick_held ();
        let h =
          { h_dest = dest; h_payload = payload; h_left = p.reorder_window; h_done = false }
        in
        held := !held @ [ h ];
        (* Low-traffic backstop: a parked datagram must not be
           stranded when no later sends come along to overtake it. *)
        ignore
          (Engine.schedule t.engine ~delay:p.reorder_flush (fun () ->
               if not h.h_done then begin
                 release h;
                 held := List.filter (fun h' -> not h'.h_done) !held
               end))
      end
      else begin
        (if p.delay > 0.0 && Prng.chance t.prng p.delay then begin
           t.stats.s_delayed <- t.stats.s_delayed + 1;
           let lag =
             Float.min p.delay_max (Prng.exponential t.prng ~mean:p.delay_mean)
           in
           ignore (Engine.schedule t.engine ~delay:lag (fun () -> forward ~dest payload))
         end
         else forward ~dest payload);
        tick_held ()
      end
    end
  in
  { b with Backend.send }

(* --- observability --- *)

let export_metrics ?(prefix = "chaos") t m =
  let c name v = Horus_obs.Metrics.(set_counter (counter m (prefix ^ "." ^ name)) v) in
  c "forwarded" t.stats.s_forwarded;
  c "dropped" t.stats.s_dropped;
  c "duplicated" t.stats.s_duplicated;
  c "reordered" t.stats.s_reordered;
  c "delayed" t.stats.s_delayed;
  c "corrupted" t.stats.s_corrupted;
  c "blocked" t.stats.s_blocked

(* --- profile (de)serialization --- *)

let partition_to_json p =
  Json.Obj
    ([ ("from", Json.Int p.pt_from);
       ("to", Json.Int p.pt_to);
       ("start", Json.Float p.pt_start) ]
     @ match p.pt_stop with None -> [] | Some s -> [ ("stop", Json.Float s) ])

let profile_to_json p =
  Json.Obj
    [ ("drop", Json.Float p.drop);
      ("duplicate", Json.Float p.duplicate);
      ("dup_delay", Json.Float p.dup_delay);
      ("reorder", Json.Float p.reorder);
      ("reorder_window", Json.Int p.reorder_window);
      ("reorder_flush", Json.Float p.reorder_flush);
      ("delay", Json.Float p.delay);
      ("delay_mean", Json.Float p.delay_mean);
      ("delay_max", Json.Float p.delay_max);
      ("corrupt", Json.Float p.corrupt);
      ("partitions", Json.List (List.map partition_to_json p.partitions)) ]

(* Lenient accessors, like Scenario's: missing fields take the default
   profile's values so hand-written profiles stay terse. *)
let jfloat ~default name j =
  match Option.bind (Json.member name j) Json.to_float with Some f -> f | None -> default

let jint ~default name j =
  match Option.bind (Json.member name j) Json.to_int with Some i -> i | None -> default

let partition_of_json j =
  match
    ( Option.bind (Json.member "from" j) Json.to_int,
      Option.bind (Json.member "to" j) Json.to_int )
  with
  | Some f, Some t ->
    Ok
      { pt_from = f;
        pt_to = t;
        pt_start = jfloat ~default:0.0 "start" j;
        pt_stop = Option.bind (Json.member "stop" j) Json.to_float }
  | _ -> Error "chaos partition needs integer \"from\" and \"to\" ranks"

let profile_of_json j =
  let d = default in
  let partitions =
    match Json.member "partitions" j with
    | None | Some Json.Null -> Ok []
    | Some (Json.List ps) ->
      List.fold_right
        (fun pj acc ->
           Result.bind acc (fun tl ->
               Result.map (fun p -> p :: tl) (partition_of_json pj)))
        ps (Ok [])
    | Some _ -> Error "chaos partitions must be a list"
  in
  Result.map
    (fun partitions ->
       { drop = jfloat ~default:d.drop "drop" j;
         duplicate = jfloat ~default:d.duplicate "duplicate" j;
         dup_delay = jfloat ~default:d.dup_delay "dup_delay" j;
         reorder = jfloat ~default:d.reorder "reorder" j;
         reorder_window = jint ~default:d.reorder_window "reorder_window" j;
         reorder_flush = jfloat ~default:d.reorder_flush "reorder_flush" j;
         delay = jfloat ~default:d.delay "delay" j;
         delay_mean = jfloat ~default:d.delay_mean "delay_mean" j;
         delay_max = jfloat ~default:d.delay_max "delay_max" j;
         corrupt = jfloat ~default:d.corrupt "corrupt" j;
         partitions })
    partitions

let profile_of_string s =
  match Json.of_string s with
  | Error e -> Error ("chaos profile parse error: " ^ e)
  | Ok j -> profile_of_json j
