(** Checksums and keyed MACs for the CHKSUM and SIGN layers. *)

val fnv1a64 : ?init:int64 -> Bytes.t -> off:int -> len:int -> int64
(** FNV-1a 64-bit hash of a byte range. *)

val checksum : Bytes.t -> off:int -> len:int -> int64

val checksum_string : string -> int64

val mac : key:string -> Bytes.t -> off:int -> len:int -> int64
(** Keyed MAC (sandwich FNV); non-cryptographic stand-in, see DESIGN.md. *)

val crc32 : ?init:int -> Bytes.t -> off:int -> len:int -> int
(** CRC-32 (ISO-HDLC / zlib polynomial) of a byte range, as an unsigned
    32-bit value in an [int]. [init] chains partial checksums: passing
    the CRC of a prefix continues it over the rest (only its low 32
    bits are used). Used by the transport frame codec to reject garbled
    datagrams. Raises [Invalid_argument] if the range is not inside the
    bytes.

    When {!accelerated}, a C kernel folds the 16-byte-multiple prefix of
    any range of at least 64 bytes by carry-less multiplication
    (PCLMULQDQ, then a Barrett reduction), and the table code of
    {!crc32_tables} finishes the tail of fewer than 16 bytes. Shorter
    ranges, and every range on a CPU without the instruction, take the
    table code alone. Both paths give the same value. *)

val crc32_tables : ?init:int -> Bytes.t -> off:int -> len:int -> int
(** The portable path of {!crc32}: slicing-by-8 table code, eight bytes
    per step, on every CPU. Exposed so tests check it on hosts where
    {!crc32} takes the kernel. *)

val accelerated : bool
(** Whether {!crc32} uses the carry-less-multiply kernel: an x86-64
    build by GCC or Clang on a CPU with PCLMULQDQ and SSE4.1. Fixed at
    module initialisation. *)

val crc32_string : string -> int
