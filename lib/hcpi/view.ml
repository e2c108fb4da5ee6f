(* Group views (Section 3).

   A view is an ordered list of endpoint addresses; the order is join
   order (oldest first), so rank 0 is the oldest member. The view id
   pairs a logical time with the installing coordinator, which makes
   ids unique across partitions: two concurrent views can share a
   logical time but never a coordinator. *)

open Horus_msg

type id = {
  ltime : int;
  coord : Addr.endpoint;
}

type t = {
  group : Addr.group;
  id : id;
  members : Addr.endpoint array;
}

let create ~group ~ltime ~members =
  match members with
  | [] -> invalid_arg "View.create: empty member list"
  | coord :: _ ->
    let seen = Hashtbl.create 8 in
    List.iter
      (fun m ->
         if Hashtbl.mem seen (Addr.endpoint_id m) then
           invalid_arg "View.create: duplicate member";
         Hashtbl.replace seen (Addr.endpoint_id m) ())
      members;
    { group; id = { ltime; coord }; members = Array.of_list members }

let singleton ~group endpoint = create ~group ~ltime:0 ~members:[ endpoint ]

let group t = t.group

let id t = t.id

let ltime t = t.id.ltime

let coordinator t = t.id.coord

let members t = Array.to_list t.members

let members_array t = t.members

let size t = Array.length t.members

let nth t rank =
  if rank < 0 || rank >= Array.length t.members then invalid_arg "View.nth";
  t.members.(rank)

let rank_of t e =
  let rec loop i =
    if i >= Array.length t.members then None
    else if Addr.equal_endpoint t.members.(i) e then Some i
    else loop (i + 1)
  in
  loop 0

let mem t e = rank_of t e <> None

let equal_id a b = a.ltime = b.ltime && Addr.equal_endpoint a.coord b.coord

(* Next view: survivors of [t] (in rank order) followed by joiners (in
   age order); coordinator is the oldest survivor — the message-free
   election of Section 5. *)
let successor t ~failed ~joiners =
  let is_failed m = List.exists (Addr.equal_endpoint m) failed in
  let survivors = List.filter (fun m -> not (is_failed m)) (members t) in
  let joiners =
    List.sort Addr.compare_endpoint
      (List.filter (fun j -> not (List.exists (Addr.equal_endpoint j) survivors)) joiners)
  in
  match survivors @ joiners with
  | [] -> None
  | ms -> Some (create ~group:t.group ~ltime:(t.id.ltime + 1) ~members:ms)

let pp fmt t =
  Format.fprintf fmt "view(%a, ltime=%d, coord=%a, [%a])" Addr.pp_group t.group t.id.ltime
    Addr.pp_endpoint t.id.coord
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " ") Addr.pp_endpoint)
    (members t)

let to_string t = Format.asprintf "%a" pp t

(* --- wire codecs --- *)

let push m t =
  Wire.push_endpoint_list m (members t);
  Wire.push_endpoint m t.id.coord;
  Msg.push_u32 m t.id.ltime;
  Wire.push_group m t.group

let pop m =
  let group = Wire.pop_group m in
  let ltime = Msg.pop_u32 m in
  let coord = Wire.pop_endpoint m in
  let members = Wire.pop_endpoint_list m in
  { group; id = { ltime; coord }; members = Array.of_list members }
