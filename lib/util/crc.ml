(* Checksums and keyed MACs for the CHKSUM and SIGN layers.

   FNV-1a is a non-cryptographic hash; the SIGN layer's "MAC" mixes a
   key into the initial state. That is enough to exercise the protocol
   behaviour (reject tampered or forged traffic); cipher strength is
   out of scope for the reproduction (see DESIGN.md substitutions). *)

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let fnv1a64 ?(init = fnv_offset) b ~off ~len =
  let h = ref init in
  for i = off to off + len - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i)));
    h := Int64.mul !h fnv_prime
  done;
  !h

let checksum b ~off ~len = fnv1a64 b ~off ~len

let checksum_string s =
  let b = Bytes.unsafe_of_string s in
  fnv1a64 b ~off:0 ~len:(Bytes.length b)

(* Keyed MAC: hash the key into the initial state, then the data, then
   the key again (sandwich construction). *)
let mac ~key b ~off ~len =
  let kb = Bytes.of_string key in
  let h = fnv1a64 kb ~off:0 ~len:(Bytes.length kb) in
  let h = fnv1a64 ~init:h b ~off ~len in
  fnv1a64 ~init:h kb ~off:0 ~len:(Bytes.length kb)

(* --- CRC-32 (ISO-HDLC / zlib polynomial, reflected), for the frame
   codec of lib/transport. Two paths compute the same function.

   The table path is slicing-by-8: eight 256-entry tables, laid end to
   end in one array and built at load, fold eight input bytes per step
   instead of one. Table k maps a byte to its CRC contribution when k
   zero bytes follow it, so the eight lookups of a step are independent
   and XOR together.

   The kernel in crc_stubs.c folds 16-byte blocks by carry-less
   multiplication (PCLMULQDQ). [crc32] hands it the 16-byte-multiple
   prefix of any range of at least 64 bytes and finishes the tail of
   fewer than 16 bytes here. Both paths work on the inverted register,
   so they chain. --- *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

(* Little-endian u32 at [i]; the caller has bounds-checked the range. *)
let[@inline] get_le32 b i =
  let w = get32u b i in
  Int32.to_int (if Sys.big_endian then bswap32 w else w) land 0xFFFFFFFF

let[@inline] tbl k i = Array.unsafe_get tables ((k lsl 8) lor i)

(* Fold [b.[off..off+len)] into the inverted register [c] (in 0..2^32-1,
   so that every table index below stays in 0..255). *)
let fold_tables c b off len =
  let c = ref c in
  let i = ref off in
  let stop8 = off + (len land lnot 7) in
  while !i < stop8 do
    let lo = get_le32 b !i lxor !c in
    let hi = get_le32 b (!i + 4) in
    c :=
      tbl 7 (lo land 0xff)
      lxor tbl 6 ((lo lsr 8) land 0xff)
      lxor tbl 5 ((lo lsr 16) land 0xff)
      lxor tbl 4 (lo lsr 24)
      lxor tbl 3 (hi land 0xff)
      lxor tbl 2 ((hi lsr 8) land 0xff)
      lxor tbl 1 ((hi lsr 16) land 0xff)
      lxor tbl 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    c := tbl 0 ((!c lxor Char.code (Bytes.unsafe_get b j)) land 0xff) lxor (!c lsr 8)
  done;
  !c

external clmul_supported : unit -> bool = "horus_crc32_accelerated" [@@noalloc]

external fold_clmul :
  Bytes.t -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "horus_crc32_clmul_byte" "horus_crc32_clmul"
[@@noalloc]

let accelerated = clmul_supported ()

let check_range name b ~off ~len =
  if off < 0 || len < 0 || off > Bytes.length b - len then invalid_arg name

let crc32_tables ?(init = 0) b ~off ~len =
  check_range "Crc.crc32_tables" b ~off ~len;
  fold_tables ((init lxor 0xFFFFFFFF) land 0xFFFFFFFF) b off len lxor 0xFFFFFFFF

let crc32 ?(init = 0) b ~off ~len =
  check_range "Crc.crc32" b ~off ~len;
  let c = (init lxor 0xFFFFFFFF) land 0xFFFFFFFF in
  let c =
    if accelerated && len >= 64 then begin
      let blocks = len land lnot 15 in
      let c = fold_clmul b off blocks c in
      fold_tables c b (off + blocks) (len - blocks)
    end
    else fold_tables c b off len
  in
  c lxor 0xFFFFFFFF

let crc32_string s =
  let b = Bytes.unsafe_of_string s in
  crc32 b ~off:0 ~len:(Bytes.length b)
