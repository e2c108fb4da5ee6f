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
    bits are used). Computed eight bytes per step (slicing-by-8). Used
    by the transport frame codec to reject garbled datagrams. Raises
    [Invalid_argument] if the range is not inside the bytes. *)

val crc32_string : string -> int
