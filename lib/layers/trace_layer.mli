(** TRACE: event and byte counters in both directions (Figure 1's
    "tracing" type). It takes no parameters. The dump downcall reports
    the counters. *)

val create : Horus_hcpi.Params.t -> Horus_hcpi.Layer.ctor
