(* Versioned wire frame for real-network datagrams.

   The simulator delivers typed byte blobs between trusted nodes; a
   real network delivers whatever arrived on the port. Every datagram a
   transport backend carries is therefore wrapped in a self-describing
   envelope that (a) identifies the protocol and its version, (b) names
   the sending endpoint and the destination group — as the u32 ids of
   the shared Horus_msg.Wire address codecs, so the frame speaks the
   same address format as every layer header above it — and (c)
   carries an explicit payload length plus a CRC-32 over everything,
   so truncated, padded or garbled packets are rejected at the door
   instead of confusing a protocol layer.

   Layout (big-endian, CRC over all bytes before it):

     +-------+---------+---------+---------+---------+---------+-------+
     | magic | version | src eid | grp gid | paylen  | payload | crc32 |
     |  u16  |   u8    |   u32   |   u32   |   u32   | paylen  |  u32  |
     +-------+---------+---------+---------+---------+---------+-------+ *)

open Horus_msg

let magic = 0x4844 (* "HD": a Horus datagram *)

let version = 1

let header_bytes = 2 + 1 + 4 + 4 + 4

let overhead = header_bytes + 4 (* + trailing CRC *)

type header = { h_src : Addr.endpoint; h_group : Addr.group }

type error =
  | Too_short of int              (* total bytes received *)
  | Bad_magic of int
  | Bad_version of int
  | Bad_crc of { expected : int; got : int }
  | Length_mismatch of { declared : int; actual : int }

let error_to_string = function
  | Too_short n -> Printf.sprintf "frame too short (%d bytes)" n
  | Bad_magic m -> Printf.sprintf "bad magic 0x%04x" m
  | Bad_version v -> Printf.sprintf "unsupported version %d" v
  | Bad_crc { expected; got } ->
    Printf.sprintf "CRC mismatch (computed 0x%08x, frame says 0x%08x)" expected got
  | Length_mismatch { declared; actual } ->
    Printf.sprintf "length mismatch (header says %d, payload is %d)" declared actual

let pp_error fmt e = Format.pp_print_string fmt (error_to_string e)

let set_u32 b at v = Bytes.set_int32_be b at (Int32.of_int (v land 0xffffffff))

let get_u32 b at = Int32.to_int (Bytes.get_int32_be b at) land 0xffffffff

(* One buffer of exactly the frame's size: header fields written in
   place (the same u32 ids the Wire codecs push), the payload blitted
   once from the caller's buffer, the CRC appended. *)
let frame ~version ~src ~group payload ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length payload - len then invalid_arg "Frame.encode";
  let frame = Bytes.create (overhead + len) in
  Bytes.set_uint16_be frame 0 magic;
  Bytes.set_uint8 frame 2 version;
  set_u32 frame 3 (Addr.endpoint_id src);
  set_u32 frame 7 (Addr.group_id group);
  set_u32 frame 11 len;
  Bytes.blit payload off frame header_bytes len;
  let body = header_bytes + len in
  set_u32 frame body (Horus_util.Crc.crc32 frame ~off:0 ~len:body);
  frame

let encode ?(version = version) ~src ~group payload =
  frame ~version ~src ~group payload ~off:0 ~len:(Bytes.length payload)

let encode_sub ~src ~group payload ~off ~len = frame ~version ~src ~group payload ~off ~len

(* Check a frame sitting at [off..off+len) of [b] and locate its
   payload, copying nothing: rx paths hand views into a reusable
   buffer ring, and the caller copies the payload exactly once, into
   whatever it builds from it. *)
let decode_view b ~off ~len =
  if len < overhead then Error (Too_short len)
  else begin
    let mg = Bytes.get_uint16_be b off in
    if mg <> magic then Error (Bad_magic mg)
    else begin
      let v = Bytes.get_uint8 b (off + 2) in
      if v <> version then Error (Bad_version v)
      else begin
        (* Magic and version vouch for the sender speaking our dialect;
           the CRC then vouches for the rest of the bytes before any
           field is interpreted. *)
        let expected = Horus_util.Crc.crc32 b ~off ~len:(len - 4) in
        let got = get_u32 b (off + len - 4) in
        if expected <> got then Error (Bad_crc { expected; got })
        else begin
          let h_src = Addr.endpoint (get_u32 b (off + 3)) in
          let h_group = Addr.group (get_u32 b (off + 7)) in
          let declared = get_u32 b (off + 11) in
          let actual = len - overhead in
          if declared <> actual then Error (Length_mismatch { declared; actual })
          else Ok ({ h_src; h_group }, off + header_bytes, actual)
        end
      end
    end
  end

let decode b =
  match decode_view b ~off:0 ~len:(Bytes.length b) with
  | Ok (hdr, poff, plen) -> Ok (hdr, Bytes.sub b poff plen)
  | Error e -> Error e
