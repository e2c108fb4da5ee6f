(* Closed-loop window accounting. Casts are numbered 0, 1, 2, ... in
   issue order; cast [k + w] may be issued only once cast [k] has been
   delivered at every member. Every cast at or below [k] is then
   complete too (each of them gated an earlier issue), so at most [w]
   casts are ever in flight, even when completions arrive out of issue
   order (several senders under a total order).

   The casts that can still be in flight are the last [w] issued, so
   their state lives in a ring of [w] slots: cast [k] owns slot
   [k mod w] from its issue until cast [k + w] is issued. *)

type t = {
  w : int;
  complete : Bytes.t;  (* per slot: 1 = its cast is delivered everywhere *)
  mutable issued : int;
  mutable completed : int;
}

let create ~w =
  if w < 1 then invalid_arg "Window.create: w must be >= 1";
  { w; complete = Bytes.make w '\000'; issued = 0; completed = 0 }

let issued t = t.issued
let completed t = t.completed
let in_flight t = t.issued - t.completed

(* The slot of cast [k] while it still holds it; casts before that are
   complete. *)
let slot t k = k mod t.w
let owns_slot t k = k >= t.issued - t.w && k < t.issued

let can_issue t = t.issued < t.w || Bytes.get t.complete (slot t t.issued) <> '\000'

(* The number of the cast just issued. *)
let issue t =
  if not (can_issue t) then invalid_arg "Window.issue: window closed";
  let k = t.issued in
  Bytes.set t.complete (slot t k) '\000';
  t.issued <- k + 1;
  k

let is_complete t k =
  if k < 0 || k >= t.issued then false
  else (not (owns_slot t k)) || Bytes.get t.complete (slot t k) <> '\000'

(* Completing a cast twice, or one that left the ring, counts once. *)
let complete t k =
  if k < 0 || k >= t.issued then invalid_arg "Window.complete: cast not issued";
  if not (is_complete t k) then begin
    Bytes.set t.complete (slot t k) '\001';
    t.completed <- t.completed + 1
  end
