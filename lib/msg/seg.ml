(* Segment-list messages for the fused send path (zero-copy bodies).

   An iovec-style message: a header block filled back to front (layers
   push headers exactly as they do on a Msg, without the Msg's
   reserve/blit machinery) in front of a list of body segments that
   alias their source buffers. Building one from an application Msg
   copies nothing — the single gather happens once, at the bottom of
   the stack, when the wire image is needed.

   Header blocks come from a {!Pool}; a stack of headers that outgrows
   its block spills into a private, larger buffer (the pool discards
   it on release), so pushes are total and the fused commit phase can
   never fail mid-way for lack of room.

   All multi-byte fields are big-endian, matching {!Msg}. *)

type t = {
  pool : Pool.t;
  mutable hdr : Bytes.t;         (* headers, written back to front *)
  mutable hoff : int;            (* first written byte in [hdr] *)
  mutable segs : (Bytes.t * int * int) list;  (* body, in order *)
  mutable body_len : int;
  mutable disposed : bool;
}

let of_msg pool m =
  let buf, off, len = Msg.view m in
  let hdr = Pool.acquire pool in
  { pool;
    hdr;
    hoff = Bytes.length hdr;
    segs = [ (buf, off, len) ];
    body_len = len;
    disposed = false }

let hdr_len t = Bytes.length t.hdr - t.hoff

let length t = hdr_len t + t.body_len

(* Ensure [n] bytes of room before [hoff], spilling into a private
   double-size buffer when the pooled block is full. *)
let reserve t n =
  if t.hoff < n then begin
    let old_len = Bytes.length t.hdr in
    let written = old_len - t.hoff in
    let grow = Int.max n old_len in
    let nb = Bytes.create (old_len + grow) in
    Bytes.blit t.hdr t.hoff nb (t.hoff + grow) written;
    (* The displaced block goes straight back: only full-size blocks
       are retained, so a spill never pollutes the pool. *)
    Pool.release t.pool t.hdr;
    t.hdr <- nb;
    t.hoff <- t.hoff + grow
  end

let push_u8 t v =
  reserve t 1;
  t.hoff <- t.hoff - 1;
  Bytes.set_uint8 t.hdr t.hoff (v land 0xff)

let push_u16 t v =
  reserve t 2;
  t.hoff <- t.hoff - 2;
  Bytes.set_uint16_be t.hdr t.hoff (v land 0xffff)

let push_u32 t v =
  reserve t 4;
  t.hoff <- t.hoff - 4;
  Bytes.set_int32_be t.hdr t.hoff (Int32.of_int (v land 0xffffffff))

let push_bool t v = push_u8 t (if v then 1 else 0)

(* The single gather: headers then body segments, one fresh buffer. *)
let to_wire t =
  let hlen = hdr_len t in
  let b = Bytes.create (hlen + t.body_len) in
  Bytes.blit t.hdr t.hoff b 0 hlen;
  let pos = ref hlen in
  List.iter
    (fun (src, off, len) ->
       Bytes.blit src off b !pos len;
       pos := !pos + len)
    t.segs;
  b

let to_msg t =
  let b = to_wire t in
  Msg.adopt b ~off:0 ~len:(Bytes.length b)

let dispose t =
  if not t.disposed then begin
    t.disposed <- true;
    Pool.release t.pool t.hdr;
    t.segs <- [];
    t.body_len <- 0
  end
