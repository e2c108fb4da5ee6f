(** Metrics registry: named counters, gauges and fixed-bucket latency
    histograms, snapshotting to deterministic JSON.

    One registry per world so independent runs never share state —
    two same-seed simulations snapshot to byte-identical JSON.
    Registration is idempotent: asking for an existing name returns
    the existing instrument (so every stack in a world accumulates
    into the same per-layer counters). Asking for an existing name as
    a different instrument kind raises [Invalid_argument]. *)

type t

type counter

type gauge

type histogram

val create : unit -> t

(** {1 Registration} *)

val counter : t -> string -> counter

val gauge : t -> string -> gauge

val histogram : ?buckets:float array -> t -> string -> histogram
(** [buckets] are strictly increasing upper bounds; an implicit [+Inf]
    overflow bucket is appended. Defaults to
    {!default_latency_buckets}. *)

val default_latency_buckets : float array
(** Powers of ten from 1 us to 10 s. *)

(** {1 Counters} *)

val incr : counter -> unit

val add : counter -> int -> unit
(** Raises [Invalid_argument] on negative increments. *)

val set_counter : counter -> int -> unit
(** For exporters that mirror an externally-maintained monotone total
    (e.g. the simulated network's packet counts) into the registry. *)

val count : counter -> int

val counter_name : counter -> string

(** {1 Gauges} *)

val set : gauge -> float -> unit

val gauge_value : gauge -> float

(** {1 Histograms} *)

val observe : histogram -> float -> unit

val observations : histogram -> int

val sum : histogram -> float

val bucket_counts : histogram -> int array
(** Per-bucket counts; the final slot is the [+Inf] overflow bucket. *)

(** {1 Snapshots} *)

val reset : t -> unit
(** Zero every instrument (registrations survive). *)

val to_json : t -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {...}}] with
    instrument names sorted, so the output is deterministic. Gauges
    holding integral values print as ints. *)

val pp : Format.formatter -> t -> unit
(** Human-readable table, one instrument per line (histograms list
    their non-empty buckets). *)
