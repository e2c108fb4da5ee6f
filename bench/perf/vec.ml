(* Append-only arrays that grow one fixed block at a time, so a run
   records every cast however fast the stack gets, and no entry ever
   moves once written.

   The block table is allocated on the first push and never replaced.
   A writer on one domain may therefore publish a length through an
   Atomic and a reader on another domain may read every entry below
   it: the table, the block and the entry were written before the
   publication. Growing costs one block allocation per [block]
   entries, orders of magnitude rarer than the stack's own minor
   collections; a store that is never pushed to costs nothing. *)

let bits = 14
let block = 1 lsl bits
let max_blocks = 1 lsl 14

type 'a t = { mutable blocks : 'a array array; fill : 'a; mutable len : int }

let create fill = { blocks = [||]; fill; len = 0 }

let length t = t.len

let push t x =
  let n = t.len in
  let b = n lsr bits in
  if b >= max_blocks then failwith "Vec.push: full";
  if n = 0 then t.blocks <- Array.make max_blocks [||];
  if Array.length t.blocks.(b) = 0 then t.blocks.(b) <- Array.make block t.fill;
  t.blocks.(b).(n land (block - 1)) <- x;
  t.len <- n + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.blocks.(i lsr bits).(i land (block - 1))

let sub t ~pos ~len = Array.init len (fun i -> get t (pos + i))
let to_array t = sub t ~pos:0 ~len:t.len
