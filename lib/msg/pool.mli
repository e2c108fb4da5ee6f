(** A small reusable pool of fixed-size byte blocks, backing the
    fast-path header blocks so steady-state casts allocate nothing
    after warmup. Hit/miss counts are plain integers (this library
    sits below the metrics registry); the stack mirrors them into
    [obs] gauges. *)

type t

val default_block : int
val default_limit : int

val create : ?block:int -> ?limit:int -> unit -> t
(** [block] is the size of every pooled block (default 64 — enough
    for the canonical stack's fused headers); [limit] caps the free
    list (default 32). *)

val acquire : t -> Bytes.t
(** A block of the pool's [block] size: recycled when one is free (a hit),
    freshly allocated otherwise (a miss). Contents are undefined. *)

val release : t -> Bytes.t -> unit
(** Return a block. Blocks of a foreign size, or beyond [limit]
    retained, are discarded to the GC (counted in {!discards}). *)

val hits : t -> int
val misses : t -> int
val discards : t -> int
val in_pool : t -> int
