(* The Horus message object (Section 3).

   A message is a byte buffer with headroom at the front. Layers push
   headers as the message travels down the stack and pop them as it
   travels up, like a stack. Pushing writes immediately before [off];
   popping reads at [off] and advances it. No data is copied on a
   push/pop, only on headroom growth.

   Ownership. A buffer may be shared: [adopt] takes a received
   datagram's bytes as they are, and [freeze] hands out a read-only
   alias of a message's live bytes instead of a copy (a
   retransmission ring, an unstable store). Every alias reads at or
   above the pin of the message it was taken from, so a write to that
   message whose range ends at or below its pin lands in headroom no
   alias reads — COM's envelope pushed under NAK's pinned header —
   and any other write first moves the message to a private copy of
   its buffer. An alias's own pin is 0: any write to it moves it.

   All multi-byte fields are big-endian. *)

type t = {
  mutable buf : Bytes.t;
  mutable off : int;  (* start of live bytes *)
  mutable len : int;  (* number of live bytes *)
  mutable pin : int;  (* lowest byte an alias may read; [unpinned] if none *)
}

let default_headroom = 64

let unpinned = max_int

exception Truncated of string

let create ?(headroom = default_headroom) payload =
  let plen = String.length payload in
  let buf = Bytes.create (headroom + plen) in
  Bytes.blit_string payload 0 buf headroom plen;
  { buf; off = headroom; len = plen; pin = unpinned }

let of_sub ?(headroom = default_headroom) b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Msg.of_sub";
  let buf = Bytes.create (headroom + len) in
  Bytes.blit b off buf headroom len;
  { buf; off = headroom; len; pin = unpinned }

(* No copy: the caller hands [b] over. The bytes before [off] (a
   datagram's spent frame header) become headroom. *)
let adopt b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg "Msg.adopt";
  { buf = b; off; len; pin = unpinned }

let of_bytes ?headroom b = of_sub ?headroom b ~off:0 ~len:(Bytes.length b)

let empty ?headroom () = create ?headroom ""

let length t = t.len

(* Everything up to the end of the live bytes, headroom included (a
   position marked before pops still restores on the copy); slack past
   the live bytes, left by [append]'s growth or a shortening [restore],
   is not copied. *)
let copy t =
  { buf = Bytes.sub t.buf 0 (t.off + t.len); off = t.off; len = t.len; pin = unpinned }

(* An alias of the live bytes; [t] is pinned at its offset (the lowest
   pin wins when frozen twice), the alias at 0. *)
let freeze t =
  if t.off < t.pin then t.pin <- t.off;
  { buf = t.buf; off = t.off; len = t.len; pin = 0 }

(* Move [t] to a private copy of its whole buffer before a write that
   would reach bytes an alias reads. The copy keeps every offset, so
   positions and capacity are as if the buffer had never been
   shared. *)
let unshare t =
  t.buf <- Bytes.copy t.buf;
  t.pin <- unpinned

let to_string t = Bytes.sub_string t.buf t.off t.len

let to_bytes t = Bytes.sub t.buf t.off t.len

(* Ensure at least [n] bytes of writable headroom before [off].
   Doubles the headroom when growing so that repeated pushes amortize;
   a push ending above the pin moves the buffer first. *)
let reserve t n =
  if t.off < n then begin
    let need = n - t.off in
    let grow = Int.max need (Bytes.length t.buf + default_headroom) in
    let buf = Bytes.create (Bytes.length t.buf + grow) in
    Bytes.blit t.buf t.off buf (t.off + grow) t.len;
    t.buf <- buf;
    t.off <- t.off + grow;
    t.pin <- unpinned
  end
  else if t.off > t.pin then unshare t

let check_pop t n what = if t.len < n then raise (Truncated what)

(* --- fixed-width fields --- *)

let push_u8 t v =
  reserve t 1;
  t.off <- t.off - 1;
  t.len <- t.len + 1;
  Bytes.set_uint8 t.buf t.off (v land 0xff)

let pop_u8 t =
  check_pop t 1 "u8";
  let v = Bytes.get_uint8 t.buf t.off in
  t.off <- t.off + 1;
  t.len <- t.len - 1;
  v

let push_u16 t v =
  reserve t 2;
  t.off <- t.off - 2;
  t.len <- t.len + 2;
  Bytes.set_uint16_be t.buf t.off (v land 0xffff)

let pop_u16 t =
  check_pop t 2 "u16";
  let v = Bytes.get_uint16_be t.buf t.off in
  t.off <- t.off + 2;
  t.len <- t.len - 2;
  v

let push_u32 t v =
  reserve t 4;
  t.off <- t.off - 4;
  t.len <- t.len + 4;
  Bytes.set_int32_be t.buf t.off (Int32.of_int (v land 0xffffffff))

let pop_u32 t =
  check_pop t 4 "u32";
  let v = Int32.to_int (Bytes.get_int32_be t.buf t.off) land 0xffffffff in
  t.off <- t.off + 4;
  t.len <- t.len - 4;
  v

let push_i64 t v =
  reserve t 8;
  t.off <- t.off - 8;
  t.len <- t.len + 8;
  Bytes.set_int64_be t.buf t.off v

let pop_i64 t =
  check_pop t 8 "i64";
  let v = Bytes.get_int64_be t.buf t.off in
  t.off <- t.off + 8;
  t.len <- t.len - 8;
  v

let push_bool t v = push_u8 t (if v then 1 else 0)

let pop_bool t = pop_u8 t <> 0

(* --- variable-length fields (u16 length prefix) --- *)

let push_string t s =
  let n = String.length s in
  if n > 0xffff then invalid_arg "Msg.push_string: string too long";
  reserve t (n + 2);
  t.off <- t.off - n;
  Bytes.blit_string s 0 t.buf t.off n;
  t.len <- t.len + n;
  push_u16 t n

let pop_string t =
  let n = pop_u16 t in
  check_pop t n "string body";
  let s = Bytes.sub_string t.buf t.off n in
  t.off <- t.off + n;
  t.len <- t.len - n;
  s

(* --- joining, for fragmentation layers (splitting is [of_sub] on a
   [view]) --- *)

(* One buffer sized for the sum, each part's live bytes blitted once. *)
let concat parts =
  let total = List.fold_left (fun acc p -> acc + p.len) 0 parts in
  let buf = Bytes.create (default_headroom + total) in
  let pos = ref default_headroom in
  List.iter
    (fun p ->
       Bytes.blit p.buf p.off buf !pos p.len;
       pos := !pos + p.len)
    parts;
  { buf; off = default_headroom; len = total; pin = unpinned }

let append t b =
  (* Append raw bytes at the tail. Grows the tail as needed; a pinned
     message moves first. *)
  let n = Bytes.length b in
  let cap = Bytes.length t.buf - (t.off + t.len) in
  if cap < n then begin
    let buf = Bytes.create (t.off + t.len + Int.max n (t.len + default_headroom)) in
    Bytes.blit t.buf t.off buf t.off t.len;
    t.buf <- buf;
    t.pin <- unpinned
  end
  else if t.off + t.len + n > t.pin then unshare t;
  Bytes.blit b 0 t.buf (t.off + t.len) n;
  t.len <- t.len + n

(* Replace the live bytes wholesale (used by transform layers such as
   compression and encryption); headroom is re-established. *)
let replace t b =
  let n = Bytes.length b in
  let buf = Bytes.create (default_headroom + n) in
  Bytes.blit b 0 buf default_headroom n;
  t.buf <- buf;
  t.off <- default_headroom;
  t.len <- n;
  t.pin <- unpinned

(* --- positions, for speculative parsing ---

   Pops only move [off]/[len]; they never write into the buffer. A
   caller may therefore save the position — [offset] and [length], two
   ints, so a per-packet check allocates nothing — pop ahead to inspect
   headers, and restore to undo the pops exactly; the fast-path
   engine's check phase relies on this to fall back to the full stack
   without perturbing the message. Pushes DO write before [off], so a
   position saved before a push must not be restored across it. *)

let offset t = t.off

let restore t ~off ~len =
  if off < 0 || len < 0 || off + len > Bytes.length t.buf then
    invalid_arg "Msg.restore";
  t.off <- off;
  t.len <- len

(* Aliasing read view (buffer, offset, length) of the live bytes, for
   readers that take a payload without blitting it (fragmentation, the
   transport's framing); the view is invalidated by any mutation of
   [t]. *)
let view t = (t.buf, t.off, t.len)

let equal a b = to_string a = to_string b

let pp fmt t =
  let s = to_string t in
  let hex = String.concat "" (List.map (fun c -> Format.sprintf "%02x" (Char.code c)) (List.init (Int.min 16 (String.length s)) (String.get s))) in
  Format.fprintf fmt "<msg len=%d %s%s>" t.len hex (if String.length s > 16 then "..." else "")
