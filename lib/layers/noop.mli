(** NOOP: an inert pass-through layer for the Section 10
    layering-overhead experiments. Declares itself [inert], so the
    fused fast path ({!Horus_hcpi.Stack.create}'s [fastpath]) leaves it
    out of the compiled cast path entirely. *)

val create : Horus_hcpi.Params.t -> Horus_hcpi.Layer.ctor
