(** The directory client: request/reply with timeout and retry, typed
    wrappers per operation, and the change-notification feed.

    Transport-shape-agnostic: built from an [xmit] thunk (raw frame
    bytes towards the server); wire {!rx_frame} into a dedicated
    backend's rx, or register {!rx} as a shared mux's raw route for
    {!Dir_protocol.gid}. Timers ride the engine, so the client is
    deterministic under virtual time.

    With [backups], the client fails over transparently: each replica
    has its own RTT estimator ({!Horus_layers.Nak.Rto}), resends back
    off per replica, an exhausted per-replica budget advances to the
    next replica, and a {!Dir_protocol.Not_primary} redirect advances
    immediately. The replica that last answered is sticky. *)

type t

val create :
  ?eid:int ->
  ?backups:(Bytes.t -> unit) list ->
  engine:Horus_sim.Engine.t ->
  (Bytes.t -> unit) ->
  t
(** [create ~engine xmit]: each replica's RTO estimator starts at
    0.25 s, and each replica gets 3 resends before the client fails
    over (or gives up on the last). [eid] is the src
    endpoint id stamped on request frames, [backups] xmit thunks
    towards the backup replicas in promotion order. *)

val replicas : t -> int
(** Replica count (1 with no backups). *)

val rx : t -> src:string -> Bytes.t -> unit
(** Feed a frame payload already stripped by a shared demux. *)

val rx_frame : t -> src:string -> Bytes.t -> unit
(** Feed a raw datagram: decodes the frame, ignores non-directory
    gids. *)

val on_notify :
  t -> (group:int -> version:int -> rank:int -> addr:string option -> unit) -> unit
(** Change feed (requires a {!subscribe}); [addr = None] means the
    binding was removed (unregister or lease eviction). *)

(** {1 Operations}

    Every callback fires exactly once: with the typed result, a
    service-side error ([Error "unknown-rank (...)"] and friends), or
    [Error "directory request timed out"] after the whole-ring retry
    budget. *)

val register :
  t -> group:int -> rank:int -> addr:string -> lease:float ->
  ((int * float, string) result -> unit) -> unit
(** On success: (directory version, lease expiry time). *)

val renew :
  t -> group:int -> rank:int -> lease:float -> ((float, string) result -> unit) -> unit

val unregister :
  t -> group:int -> rank:int -> ((unit, string) result -> unit) -> unit

val lookup :
  t -> group:int -> rank:int -> ((string, string) result -> unit) -> unit

val list_group :
  t -> group:int -> ((int * (int * string) list, string) result -> unit) -> unit
(** On success: (directory version, rank-sorted bindings). *)

val subscribe : t -> group:int -> ((int, string) result -> unit) -> unit

val unsubscribe : t -> group:int -> ((unit, string) result -> unit) -> unit

(** {1 Lease keepalive} *)

type renewal
(** A live register-and-renew cadence for one binding. *)

val keepalive : t -> group:int -> rank:int -> addr:string -> lease:float -> renewal
(** Register now and renew at half-lease cadence (re-registering if a
    renewal finds the lease lapsed). *)

val release : renewal -> unit
(** Graceful stop: end the cadence and unregister the binding. *)

val abandon : renewal -> unit
(** Ungraceful stop: end the cadence but leave the binding to lapse by
    lease expiry — the crash path, where no goodbye is ever sent. *)

val peers_of : (int * string) list -> Horus_transport.Peers.t
(** A static peer book from a directory listing — the bridge back
    into {!Horus_transport.Peers}-shaped APIs. *)

type stats = {
  mutable c_sent : int;
  mutable c_retries : int;
  mutable c_timeouts : int;
  mutable c_replies : int;
  mutable c_notifies : int;
  mutable c_failovers : int;  (** replica advances after an exhausted budget *)
  mutable c_redirects : int;  (** [Not_primary] redirects honoured *)
}

val stats : t -> stats

val export_metrics : ?prefix:string -> t -> Horus_obs.Metrics.t -> unit
(** Mirror {!stats} into the registry ([prefix] defaults to
    ["dir.client"]); call at snapshot time. *)

val export_metrics_sum : ?prefix:string -> t list -> Horus_obs.Metrics.t -> unit
(** Like {!export_metrics}, summing over many clients — one logical
    section for a harness with a client per socket. *)
