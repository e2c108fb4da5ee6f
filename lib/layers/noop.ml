(* NOOP: an inert layer that forwards every event untouched.

   Exists for the Section 10 layering-overhead experiments: stacking k
   NOOP layers measures the cost of k layer crossings with zero
   protocol work. *)

open Horus_hcpi

(* [inert] lets the fused fast path leave NOOP out of its compiled
   cast path, so padding costs nothing there. *)
let create (_ : Params.t) env = Layer.passthrough ~name:"NOOP" ~inert:true env
