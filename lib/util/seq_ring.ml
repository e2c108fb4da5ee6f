(* Sequence-numbered slots in one circular array.

   The protocol layers keep per-origin logs whose keys are consecutive
   sequence numbers: a retransmission buffer from the acknowledged
   floor up to the next sequence number, a delivery log from the
   stability floor up, a stash of arrivals just ahead of the next
   expected one. A hash table keyed by sequence number pays a bucket
   cell per insert and, worse, a sweep over the whole table to find
   and free everything below a floor. Here sequence [s] lives in slot
   [s land (capacity - 1)] of a power-of-two array, so an insert is a
   store, the lowest entry is known, and dropping everything below a
   floor walks only the freed slots.

   The window [lo, hi) spans every held sequence number; [lo] is held
   whenever the ring is non-empty. Holes inside the window are allowed
   (a stash is sparse), marked by the [held] bytes. The window grows
   by doubling the array; it never shrinks, so a steady-state log
   allocates nothing. Vacated slots are overwritten with [dummy] so
   that the ring holds no reference to a freed value. *)

type 'a t = {
  dummy : 'a;
  mutable slots : 'a array;   (* length 0 or a power of two *)
  mutable held : Bytes.t;     (* '\001' where the slot holds a value *)
  mutable lo : int;
  mutable hi : int;
  mutable count : int;
}

let create ~dummy = { dummy; slots = [||]; held = Bytes.empty; lo = 0; hi = 0; count = 0 }

let length t = t.count

let is_empty t = t.count = 0

let lowest t = if t.count = 0 then invalid_arg "Seq_ring.lowest: empty" else t.lo

let index t seq = seq land (Array.length t.slots - 1)

let is_held t i = Bytes.unsafe_get t.held i <> '\000'

let mem t seq =
  t.count > 0 && seq >= t.lo && seq < t.hi && is_held t (index t seq)

let get t seq =
  if mem t seq then Array.unsafe_get t.slots (index t seq) else raise Not_found

(* Re-place the current window into an array of at least [need] slots. *)
let grow t need =
  let cap = ref (Int.max 8 (Array.length t.slots)) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let slots = Array.make !cap t.dummy in
  let held = Bytes.make !cap '\000' in
  let mask = !cap - 1 in
  if t.count > 0 then
    for s = t.lo to t.hi - 1 do
      let i = index t s in
      if is_held t i then begin
        slots.(s land mask) <- t.slots.(i);
        Bytes.set held (s land mask) '\001'
      end
    done;
  t.slots <- slots;
  t.held <- held

let set t seq v =
  if seq < 0 then invalid_arg "Seq_ring.set: negative sequence number";
  if t.count = 0 then begin
    if Array.length t.slots = 0 then grow t 1;
    t.lo <- seq;
    t.hi <- seq + 1
  end
  else begin
    let lo = Int.min t.lo seq and hi = Int.max t.hi (seq + 1) in
    if hi - lo > Array.length t.slots then grow t (hi - lo);
    t.lo <- lo;
    t.hi <- hi
  end;
  let i = index t seq in
  if not (is_held t i) then begin
    Bytes.unsafe_set t.held i '\001';
    t.count <- t.count + 1
  end;
  Array.unsafe_set t.slots i v

let vacate t i =
  Bytes.unsafe_set t.held i '\000';
  Array.unsafe_set t.slots i t.dummy;
  t.count <- t.count - 1

(* Restore the window invariant after [lo] or [hi - 1] was vacated. *)
let tighten t =
  if t.count = 0 then t.hi <- t.lo
  else begin
    while not (is_held t (index t t.lo)) do
      t.lo <- t.lo + 1
    done;
    while not (is_held t (index t (t.hi - 1))) do
      t.hi <- t.hi - 1
    done
  end

let remove t seq =
  if mem t seq then begin
    vacate t (index t seq);
    tighten t
  end

let drop_below t floor =
  let stop = Int.min floor t.hi in
  while t.count > 0 && t.lo < stop do
    let i = index t t.lo in
    if is_held t i then vacate t i;
    t.lo <- t.lo + 1
  done;
  tighten t

let iter f t =
  if t.count > 0 then
    for s = t.lo to t.hi - 1 do
      let i = index t s in
      if is_held t i then f s (Array.unsafe_get t.slots i)
    done

let clear t =
  if t.count > 0 then
    for s = t.lo to t.hi - 1 do
      let i = index t s in
      if is_held t i then vacate t i
    done;
  t.hi <- t.lo
