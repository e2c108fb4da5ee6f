(* Endpoint and group addresses.

   An endpoint address identifies a communicating entity; messages are
   never addressed to endpoints but to groups (Section 3 of the paper).
   The endpoint id doubles as the simulated-network node id, and id
   order doubles as age order (lower id = created earlier), which the
   MBRSHIP layer uses for its message-free coordinator election. *)

type endpoint = { eid : int }

type group = { gid : int }

let endpoint eid =
  if eid < 0 then invalid_arg "Addr.endpoint: negative id";
  { eid }

let group gid =
  if gid < 0 then invalid_arg "Addr.group: negative id";
  { gid }

let endpoint_id e = e.eid

let group_id g = g.gid

let compare_endpoint a b = Int.compare a.eid b.eid

let equal_endpoint a b = a.eid = b.eid

let equal_group a b = a.gid = b.gid

let pp_endpoint fmt e = Format.fprintf fmt "e%d" e.eid

let pp_group fmt g = Format.fprintf fmt "g%d" g.gid

let endpoint_to_string e = Format.asprintf "%a" pp_endpoint e

module Endpoint_set = Set.Make (struct
    type t = endpoint
    let compare = compare_endpoint
  end)

module Endpoint_map = Map.Make (struct
    type t = endpoint
    let compare = compare_endpoint
  end)
