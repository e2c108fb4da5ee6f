(** Binds endpoints to real transport backends ({!Horus_transport}):
    outgoing packets are framed (src endpoint, group address, CRC) and
    addressed through a shared {!Horus_transport.Peers} book; incoming
    datagrams are decoded and routed into the endpoint, with bad frames
    counted and dropped. One link per world; it registers a metrics
    exporter so snapshots gain a [transport.*] section summing every
    backend it manages.

    Both binding shapes share one demux. {!mux}/{!attach_mux}
    multiplexes many endpoints and many groups over one socket pair,
    demuxing incoming frames on the frame [gid] through a per-mux group
    table that tracks which local endpoint owns each group (at most one
    member of a group per socket). {!attach} dedicates a socket to one
    endpoint: a mux of its own, closed when the endpoint crashes.
    Frames for gids no local stack has joined are dropped and counted
    in the [transport.unknown_gid] metric. Cross-shard routing happens
    below the link, in {!Horus_transport.Shard.bypass} backends. *)

type t

val create : ?prefix:string -> World.t -> t
(** [prefix] (default ["transport"]) names the metrics section. *)

val unknown_gid : t -> int
(** Frames received whose gid matched no local group (also exported as
    the [transport.unknown_gid] counter). *)

val attach :
  t ->
  backend:Horus_transport.Backend.t ->
  peers:Horus_transport.Peers.t ->
  Endpoint.t ->
  Endpoint.attachment
(** Pass as {!Endpoint.create}'s [attach]; takes ownership of the
    backend's rx callback (and closes the backend if the endpoint
    crashes). *)

val endpoint :
  t ->
  backend:Horus_transport.Backend.t ->
  peers:Horus_transport.Peers.t ->
  rank:int ->
  spec:string ->
  Endpoint.t
(** The deployment one-liner: an endpoint pinned at address [rank] and
    bound to [backend]. *)

(** {1 Multi-group socket multiplexing} *)

type mux
(** One shared socket carrying many endpoints and many groups. *)

val mux :
  t -> backend:Horus_transport.Backend.t -> peers:Horus_transport.Peers.t -> mux
(** Claim [backend]'s rx for the shared demux. *)

val attach_mux : t -> mux -> Endpoint.t -> Endpoint.attachment
(** Attach one more endpoint to the shared socket. The groups the
    endpoint joins are mirrored into the demux table as its stacks
    register routes; raises [Invalid_argument] if a group already has
    a member on this socket (the frame header cannot distinguish two
    local members of one group). Crashing the endpoint withdraws its
    groups but leaves the socket open. *)

val mux_endpoint : t -> mux -> rank:int -> spec:string -> Endpoint.t
(** The shared-socket deployment one-liner. *)

val route_raw : mux -> gid:int -> (src:string -> Bytes.t -> unit) -> unit
(** Claim a gid on the shared socket for a non-stack protocol (the
    directory client rides its reserved gid this way): matching frames
    bypass the endpoint tables and land in the handler, already
    CRC-checked and stripped to their payload. [src] is the socket
    source address. Raises [Invalid_argument] if the gid is already
    claimed. *)
