(* The directory wire protocol: versioned request/reply frames over
   the Backend waist.

   Directory traffic rides the same Frame codec (magic, version, src,
   gid, CRC) as group traffic, on one reserved gid, so it multiplexes
   onto any socket a Transport_link mux already owns — the directory
   is an edge service of the hourglass, not a new waist. Inside the
   frame payload every message carries its own protocol version byte,
   an opcode and a request id, so requests and replies correlate over
   a connectionless socket and the protocol can evolve independently
   of the frame codec.

   Encoding uses the Msg LIFO discipline: fields are pushed in reverse
   pop order, the envelope (req id, opcode, version) last, so decoding
   pops version, opcode, req id, then the fields. *)

open Horus_msg

let gid = 0xD1C7  (* reserved group id for directory traffic *)

let service_eid = 0xD1C7  (* the src endpoint id stamped on service frames *)

let version = 1

(* Replication: one mutation of one group's state, as applied by the
   primary. Leases travel as REMAINING duration, not absolute expiry —
   each replica re-anchors the deadline on its own engine clock, so
   the protocol never assumes replicas share a clock. *)
type change =
  | Ch_bind of { rank : int; addr : string; remaining : float }
  | Ch_remove of int
  | Ch_sub of string
  | Ch_unsub of string

type snapshot_group = {
  sg_group : int;
  sg_version : int;
  sg_entries : (int * string * float) list;  (* rank, addr, remaining lease *)
  sg_subs : string list;
}

type request =
  | Register of { group : int; rank : int; addr : string; lease : float }
  | Renew of { group : int; rank : int; lease : float }
  | Unregister of { group : int; rank : int }
  | Lookup of { group : int; rank : int }
  | List_group of int
  | List_groups
  | Subscribe of int
  | Unsubscribe of int
  (* Primary -> backup replication stream (unacknowledged, req id 0).
     [epoch] is the primary incarnation; [seq] orders the delta stream
     within and across epochs, so a backup detects gaps and asks for a
     snapshot. *)
  | Repl_delta of { epoch : int; seq : int; group : int; version : int; change : change }
  | Repl_heartbeat of { epoch : int; seq : int }
  | Repl_sync of { from_seq : int }  (* backup -> primary: state please *)
  | Repl_snapshot of { epoch : int; seq : int; groups : snapshot_group list }

type error_code = Unknown_group | Unknown_rank | Bad_request | Not_primary

type reply =
  | Registered of { group : int; rank : int; version : int; expires : float }
  | Found of { group : int; rank : int; addr : string }
  | Entries of { group : int; version : int; entries : (int * string) list }
  | Groups of int list
  | Subscribed of { group : int; version : int }
  | Done
  | Notify of { group : int; version : int; rank : int; addr : string option }
  | Error of { code : error_code; detail : string }

(* Opcodes: requests in [1, 0x7f], replies in [0x80, 0xff]. *)
let op_register = 1
let op_renew = 2
let op_unregister = 3
let op_lookup = 4
let op_list_group = 5
let op_list_groups = 6
let op_subscribe = 7
let op_unsubscribe = 8

(* Replication opcodes sit in their own sub-range of the request
   space, so a v1 service that predates replication rejects them as
   unknown requests rather than misparsing them. *)
let op_repl_delta = 0x20
let op_repl_heartbeat = 0x21
let op_repl_sync = 0x22
let op_repl_snapshot = 0x23

let op_registered = 0x81
let op_found = 0x82
let op_entries = 0x83
let op_groups = 0x84
let op_subscribed = 0x85
let op_done = 0x86
let op_notify = 0x87
let op_error = 0x88

let error_code_to_int = function
  | Unknown_group -> 1
  | Unknown_rank -> 2
  | Bad_request -> 3
  | Not_primary -> 4

let error_code_of_int = function
  | 1 -> Some Unknown_group
  | 2 -> Some Unknown_rank
  | 3 -> Some Bad_request
  | 4 -> Some Not_primary
  | _ -> None

let error_code_to_string = function
  | Unknown_group -> "unknown-group"
  | Unknown_rank -> "unknown-rank"
  | Bad_request -> "bad-request"
  | Not_primary -> "not-primary"

(* Leases and deadlines travel as microseconds in an i64: float
   seconds on the API, integers on the wire, so encodings are exact
   and double runs byte-identical. *)
let push_time m f = Msg.push_i64 m (Int64.of_float (f *. 1e6))

let pop_time m = Int64.to_float (Msg.pop_i64 m) /. 1e6

let envelope m ~req_id ~op =
  Msg.push_u32 m req_id;
  Msg.push_u8 m op;
  Msg.push_u8 m version;
  Msg.to_bytes m

let encode_request ~req_id req =
  let m = Msg.empty () in
  let op =
    match req with
    | Register { group; rank; addr; lease } ->
      push_time m lease;
      Msg.push_string m addr;
      Msg.push_u32 m rank;
      Msg.push_u32 m group;
      op_register
    | Renew { group; rank; lease } ->
      push_time m lease;
      Msg.push_u32 m rank;
      Msg.push_u32 m group;
      op_renew
    | Unregister { group; rank } ->
      Msg.push_u32 m rank;
      Msg.push_u32 m group;
      op_unregister
    | Lookup { group; rank } ->
      Msg.push_u32 m rank;
      Msg.push_u32 m group;
      op_lookup
    | List_group group ->
      Msg.push_u32 m group;
      op_list_group
    | List_groups -> op_list_groups
    | Subscribe group ->
      Msg.push_u32 m group;
      op_subscribe
    | Unsubscribe group ->
      Msg.push_u32 m group;
      op_unsubscribe
    | Repl_delta { epoch; seq; group; version; change } ->
      (match change with
       | Ch_bind { rank; addr; remaining } ->
         push_time m remaining;
         Msg.push_string m addr;
         Msg.push_u32 m rank;
         Msg.push_u8 m 1
       | Ch_remove rank ->
         Msg.push_u32 m rank;
         Msg.push_u8 m 2
       | Ch_sub addr ->
         Msg.push_string m addr;
         Msg.push_u8 m 3
       | Ch_unsub addr ->
         Msg.push_string m addr;
         Msg.push_u8 m 4);
      Msg.push_u32 m version;
      Msg.push_u32 m group;
      Msg.push_u32 m seq;
      Msg.push_u32 m epoch;
      op_repl_delta
    | Repl_heartbeat { epoch; seq } ->
      Msg.push_u32 m seq;
      Msg.push_u32 m epoch;
      op_repl_heartbeat
    | Repl_sync { from_seq } ->
      Msg.push_u32 m from_seq;
      op_repl_sync
    | Repl_snapshot { epoch; seq; groups } ->
      List.iter
        (fun sg ->
           List.iter (fun a -> Msg.push_string m a) (List.rev sg.sg_subs);
           Msg.push_u16 m (List.length sg.sg_subs);
           List.iter
             (fun (rank, addr, remaining) ->
                push_time m remaining;
                Msg.push_string m addr;
                Msg.push_u32 m rank)
             (List.rev sg.sg_entries);
           Msg.push_u16 m (List.length sg.sg_entries);
           Msg.push_u32 m sg.sg_version;
           Msg.push_u32 m sg.sg_group)
        (List.rev groups);
      Msg.push_u16 m (List.length groups);
      Msg.push_u32 m seq;
      Msg.push_u32 m epoch;
      op_repl_snapshot
  in
  envelope m ~req_id ~op

let encode_reply ~req_id reply =
  let m = Msg.empty () in
  let op =
    match reply with
    | Registered { group; rank; version; expires } ->
      push_time m expires;
      Msg.push_u32 m version;
      Msg.push_u32 m rank;
      Msg.push_u32 m group;
      op_registered
    | Found { group; rank; addr } ->
      Msg.push_string m addr;
      Msg.push_u32 m rank;
      Msg.push_u32 m group;
      op_found
    | Entries { group; version; entries } ->
      List.iter
        (fun (rank, addr) ->
           Msg.push_string m addr;
           Msg.push_u32 m rank)
        (List.rev entries);
      Msg.push_u16 m (List.length entries);
      Msg.push_u32 m version;
      Msg.push_u32 m group;
      op_entries
    | Groups gids ->
      List.iter (fun g -> Msg.push_u32 m g) (List.rev gids);
      Msg.push_u16 m (List.length gids);
      op_groups
    | Subscribed { group; version } ->
      Msg.push_u32 m version;
      Msg.push_u32 m group;
      op_subscribed
    | Done -> op_done
    | Notify { group; version; rank; addr } ->
      (match addr with
       | Some a ->
         Msg.push_string m a;
         Msg.push_bool m true
       | None -> Msg.push_bool m false);
      Msg.push_u32 m rank;
      Msg.push_u32 m version;
      Msg.push_u32 m group;
      op_notify
    | Error { code; detail } ->
      Msg.push_string m detail;
      Msg.push_u8 m (error_code_to_int code);
      op_error
  in
  envelope m ~req_id ~op

let decode payload k =
  let m = Msg.of_bytes payload in
  match
    let v = Msg.pop_u8 m in
    if v <> version then Result.Error (Printf.sprintf "directory protocol version %d" v)
    else
      let op = Msg.pop_u8 m in
      let req_id = Msg.pop_u32 m in
      k m op req_id
  with
  | exception _ -> Result.Error "truncated directory message"
  | r -> r

let decode_request payload =
  decode payload (fun m op req_id ->
      let req =
        match op with
        | o when o = op_register ->
          let group = Msg.pop_u32 m in
          let rank = Msg.pop_u32 m in
          let addr = Msg.pop_string m in
          let lease = pop_time m in
          Some (Register { group; rank; addr; lease })
        | o when o = op_renew ->
          let group = Msg.pop_u32 m in
          let rank = Msg.pop_u32 m in
          let lease = pop_time m in
          Some (Renew { group; rank; lease })
        | o when o = op_unregister ->
          let group = Msg.pop_u32 m in
          let rank = Msg.pop_u32 m in
          Some (Unregister { group; rank })
        | o when o = op_lookup ->
          let group = Msg.pop_u32 m in
          let rank = Msg.pop_u32 m in
          Some (Lookup { group; rank })
        | o when o = op_list_group -> Some (List_group (Msg.pop_u32 m))
        | o when o = op_list_groups -> Some List_groups
        | o when o = op_subscribe -> Some (Subscribe (Msg.pop_u32 m))
        | o when o = op_unsubscribe -> Some (Unsubscribe (Msg.pop_u32 m))
        | o when o = op_repl_delta ->
          let epoch = Msg.pop_u32 m in
          let seq = Msg.pop_u32 m in
          let group = Msg.pop_u32 m in
          let version = Msg.pop_u32 m in
          let change =
            match Msg.pop_u8 m with
            | 1 ->
              let rank = Msg.pop_u32 m in
              let addr = Msg.pop_string m in
              let remaining = pop_time m in
              Some (Ch_bind { rank; addr; remaining })
            | 2 -> Some (Ch_remove (Msg.pop_u32 m))
            | 3 -> Some (Ch_sub (Msg.pop_string m))
            | 4 -> Some (Ch_unsub (Msg.pop_string m))
            | _ -> None
          in
          Option.map
            (fun change -> Repl_delta { epoch; seq; group; version; change })
            change
        | o when o = op_repl_heartbeat ->
          let epoch = Msg.pop_u32 m in
          let seq = Msg.pop_u32 m in
          Some (Repl_heartbeat { epoch; seq })
        | o when o = op_repl_sync -> Some (Repl_sync { from_seq = Msg.pop_u32 m })
        | o when o = op_repl_snapshot ->
          let epoch = Msg.pop_u32 m in
          let seq = Msg.pop_u32 m in
          let n = Msg.pop_u16 m in
          let groups =
            List.init n (fun _ ->
                let sg_group = Msg.pop_u32 m in
                let sg_version = Msg.pop_u32 m in
                let ne = Msg.pop_u16 m in
                let sg_entries =
                  List.init ne (fun _ ->
                      let rank = Msg.pop_u32 m in
                      let addr = Msg.pop_string m in
                      let remaining = pop_time m in
                      (rank, addr, remaining))
                in
                let ns = Msg.pop_u16 m in
                let sg_subs = List.init ns (fun _ -> Msg.pop_string m) in
                { sg_group; sg_version; sg_entries; sg_subs })
          in
          Some (Repl_snapshot { epoch; seq; groups })
        | _ -> None
      in
      match req with
      | Some r -> Ok (req_id, r)
      | None -> Result.Error (Printf.sprintf "unknown directory request opcode %d" op))

let decode_reply payload =
  decode payload (fun m op req_id ->
      let rep =
        match op with
        | o when o = op_registered ->
          let group = Msg.pop_u32 m in
          let rank = Msg.pop_u32 m in
          let version = Msg.pop_u32 m in
          let expires = pop_time m in
          Some (Registered { group; rank; version; expires })
        | o when o = op_found ->
          let group = Msg.pop_u32 m in
          let rank = Msg.pop_u32 m in
          let addr = Msg.pop_string m in
          Some (Found { group; rank; addr })
        | o when o = op_entries ->
          let group = Msg.pop_u32 m in
          let version = Msg.pop_u32 m in
          let n = Msg.pop_u16 m in
          let entries =
            List.init n (fun _ ->
                let rank = Msg.pop_u32 m in
                let addr = Msg.pop_string m in
                (rank, addr))
          in
          Some (Entries { group; version; entries })
        | o when o = op_groups ->
          let n = Msg.pop_u16 m in
          Some (Groups (List.init n (fun _ -> Msg.pop_u32 m)))
        | o when o = op_subscribed ->
          let group = Msg.pop_u32 m in
          let version = Msg.pop_u32 m in
          Some (Subscribed { group; version })
        | o when o = op_done -> Some Done
        | o when o = op_notify ->
          let group = Msg.pop_u32 m in
          let version = Msg.pop_u32 m in
          let rank = Msg.pop_u32 m in
          let addr = if Msg.pop_bool m then Some (Msg.pop_string m) else None in
          Some (Notify { group; version; rank; addr })
        | o when o = op_error ->
          let code = Msg.pop_u8 m in
          let detail = Msg.pop_string m in
          (match error_code_of_int code with
           | Some code -> Some (Error { code; detail })
           | None -> None)
        | _ -> None
      in
      match rep with
      | Some r -> Ok (req_id, r)
      | None -> Result.Error (Printf.sprintf "unknown directory reply opcode %d" op))

let pp_reply fmt = function
  | Registered { group; rank; version; expires } ->
    Format.fprintf fmt "registered g=%d r=%d v=%d exp=%.3f" group rank version expires
  | Found { group; rank; addr } -> Format.fprintf fmt "found g=%d r=%d %s" group rank addr
  | Entries { group; version; entries } ->
    Format.fprintf fmt "entries g=%d v=%d n=%d" group version (List.length entries)
  | Groups gs -> Format.fprintf fmt "groups n=%d" (List.length gs)
  | Subscribed { group; version } -> Format.fprintf fmt "subscribed g=%d v=%d" group version
  | Done -> Format.fprintf fmt "done"
  | Notify { group; version; rank; addr } ->
    Format.fprintf fmt "notify g=%d v=%d r=%d %s" group version rank
      (match addr with Some a -> a | None -> "(gone)")
  | Error { code; detail } ->
    Format.fprintf fmt "error %s: %s" (error_code_to_string code) detail
