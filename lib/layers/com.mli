(** COM: the bottom adapter layer — raw best-effort datagrams to and
    from the HCPI (Section 7). Recovers source addresses (P11) from the
    attachment, which hands each packet up with its sender's endpoint
    id; checks a magic/length/kind envelope (P10); filters casts from
    non-members; and turns the view downcall into its destination
    set.

    Parameters: [filter] (default true) drop casts from non-members;
    [loopback] (default true) deliver own casts locally. *)

val src_meta : string
(** Meta key carrying the raw source endpoint id on every delivery. *)

val src_of : Horus_hcpi.Event.meta -> int
(** The source endpoint id under {!src_meta}, or -1 if absent.
    Allocates nothing. *)

val magic : int

val create : Horus_hcpi.Params.t -> Horus_hcpi.Layer.ctor
