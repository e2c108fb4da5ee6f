(* A small reusable buffer pool for fast-path header blocks.

   Steady-state casts allocate one header block per message; recycling
   the blocks keeps the fused send path allocation-free after warmup.
   Blocks are fixed-size [Bytes.t]; [acquire] hands out a recycled
   block when one is free (a hit) and allocates otherwise (a miss),
   [release] returns a block up to [limit] retained blocks — beyond
   that, or for a foreign-sized block (a spilled header that outgrew
   its block), the block is discarded to the GC.

   The pool lives in [lib/msg] (below [lib/obs]), so it exposes its
   hit/miss counts as plain integers; the stack mirrors them into the
   metrics registry as gauges. *)

type t = {
  block : int;                 (* size of every pooled block *)
  limit : int;                 (* max blocks retained on the free list *)
  mutable free : Bytes.t list;
  mutable free_count : int;
  mutable hits : int;
  mutable misses : int;
  mutable discards : int;      (* releases dropped (full or wrong size) *)
}

let default_block = 64
let default_limit = 32

let create ?(block = default_block) ?(limit = default_limit) () =
  if block <= 0 then invalid_arg "Pool.create: block must be positive";
  if limit < 0 then invalid_arg "Pool.create: limit must be >= 0";
  { block; limit; free = []; free_count = 0; hits = 0; misses = 0; discards = 0 }

let acquire t =
  match t.free with
  | b :: rest ->
    t.free <- rest;
    t.free_count <- t.free_count - 1;
    t.hits <- t.hits + 1;
    b
  | [] ->
    t.misses <- t.misses + 1;
    Bytes.create t.block

let release t b =
  if Bytes.length b = t.block && t.free_count < t.limit then begin
    t.free <- b :: t.free;
    t.free_count <- t.free_count + 1
  end
  else t.discards <- t.discards + 1

let hits t = t.hits

let misses t = t.misses

let discards t = t.discards

let in_pool t = t.free_count
