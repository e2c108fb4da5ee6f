(* Cast payloads that prove their own integrity.

   Layout (big-endian): [seq u32 | sender u8 | fnv32 u32 | pad]. The pad
   is a window into a pool of seeded random bytes, starting at offset
   [seq mod slots]; the header carries the FNV-1a checksum of exactly
   that window. A receiver therefore checks a delivery against the
   generator itself — header fields, the carried checksum, and every
   pad byte — without hashing 8 KiB per delivery: the checksums of the
   [slots] windows are computed once, before the run. *)

let header = 9
let slots = 256

type gen = {
  size : int;
  senders : int;     (* cast k is sent by member k mod senders *)
  pool : Bytes.t;    (* pad length + slots seeded bytes *)
  sums : int array;  (* FNV-1a of each pad window *)
}

let fnv1a32 b off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.get b i)) * 0x01000193 land 0xffffffff
  done;
  !h

let make ~random_bytes ~size ~senders =
  if size < header then invalid_arg "Payload.make: size below the header";
  if senders < 1 || senders > 255 then invalid_arg "Payload.make: senders out of range";
  let pad = size - header in
  let pool = random_bytes (pad + slots) in
  { size; senders; pool; sums = Array.init slots (fun o -> fnv1a32 pool o pad) }

let sender_of g seq = seq mod g.senders

let encode g seq =
  let b = Bytes.create g.size in
  Bytes.set_int32_be b 0 (Int32.of_int seq);
  Bytes.set_uint8 b 4 (sender_of g seq);
  let o = seq mod slots in
  Bytes.set_int32_be b 5 (Int32.of_int g.sums.(o));
  Bytes.blit g.pool o b header (g.size - header);
  Bytes.unsafe_to_string b

(* What a delivery proves, packed in one int so the hot path does not
   allocate: [seq] when intact, [corrupt seq] when the header names a
   cast but something else is wrong, [unreadable] when even the length
   is wrong. *)
let unreadable = min_int
let corrupt seq = -seq - 1

(* The cast a [read] result names; -1 for [unreadable]. *)
let seq_of r = if r >= 0 then r else if r = unreadable then -1 else -r - 1

let pad_equal g buf off o =
  let pad = g.size - header in
  let words = pad / 8 in
  let ok = ref true and i = ref 0 in
  while !ok && !i < words do
    let at = !i * 8 in
    if not (Int64.equal (Bytes.get_int64_ne buf (off + at)) (Bytes.get_int64_ne g.pool (o + at)))
    then ok := false;
    incr i
  done;
  for j = words * 8 to pad - 1 do
    if Bytes.get buf (off + j) <> Bytes.get g.pool (o + j) then ok := false
  done;
  !ok

let read g buf ~off ~len =
  if len <> g.size then unreadable
  else
    let seq = Int32.to_int (Bytes.get_int32_be buf off) land 0xffffffff in
    let o = seq mod slots in
    let sum = Int32.to_int (Bytes.get_int32_be buf (off + 5)) land 0xffffffff in
    if Bytes.get_uint8 buf (off + 4) = sender_of g seq && sum = g.sums.(o)
       && pad_equal g buf (off + header) o
    then seq
    else corrupt seq
