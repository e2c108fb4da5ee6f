(* A ring of the per-stack event queue (Section 3's event-queue
   scheduling model; Stack keeps one for the order and one per kind of
   event): a growable circular array. Every layer crossing passes
   through it, so push and pop allocate nothing once the ring has
   reached the stack's steady depth. A popped slot is overwritten with
   [dummy] so the ring keeps no reference to a processed event. *)

type 'a t = {
  dummy : 'a;
  mutable items : 'a array;  (* length 0 or a power of two *)
  mutable head : int;        (* index of the oldest item *)
  mutable size : int;
}

let create ~dummy = { dummy; items = [||]; head = 0; size = 0 }

let is_empty t = t.size = 0

let grow t =
  let cap = Array.length t.items in
  let items = Array.make (if cap = 0 then 16 else 2 * cap) t.dummy in
  for i = 0 to t.size - 1 do
    items.(i) <- t.items.((t.head + i) land (cap - 1))
  done;
  t.items <- items;
  t.head <- 0

let push t x =
  if t.size = Array.length t.items then grow t;
  Array.unsafe_set t.items ((t.head + t.size) land (Array.length t.items - 1)) x;
  t.size <- t.size + 1

let pop t =
  if t.size = 0 then invalid_arg "Fifo.pop: empty";
  let x = Array.unsafe_get t.items t.head in
  Array.unsafe_set t.items t.head t.dummy;
  t.head <- (t.head + 1) land (Array.length t.items - 1);
  t.size <- t.size - 1;
  x

let clear t =
  while t.size > 0 do
    ignore (pop t)
  done
