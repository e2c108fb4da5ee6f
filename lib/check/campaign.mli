(** The one campaign harness: run independent cells, fingerprint them,
    report them and gate a double run. Soak, churn and the conformance
    sweep are campaigns.

    Cell [i] is the configured run with its seed offset by [i]. With
    one shard it runs on the calling domain; otherwise one cell runs
    per OCaml domain over the {!Horus_transport.Shard} fabric. Each
    cell is a single-threaded deterministic run and the combined
    fingerprint folds the cells' keys in shard order, so it is a pure
    function of (config, shards). *)

val fingerprint : Horus_obs.Json.t -> int64
(** FNV-1a ({!Horus_util.Crc.checksum_string}) of the compact JSON. *)

type 'r t = {
  ok : 'r -> bool;
  fingerprint : 'r -> int64;  (** a one-cell run's combined fingerprint *)
  key : 'r -> string;
      (** folded into a multi-cell combined fingerprint; the double-run
          gate compares it cell by cell *)
  to_json : 'r -> Horus_obs.Json.t;
}

type 'r run = {
  shards : int;
  cells : 'r array;  (** in shard order *)
  combined : int64;
  wall : float;      (** wall seconds *)
}

val cell_name : shards:int -> string -> int -> string
(** [name] with one shard, ["name#s<i>"] with more. *)

val run : 'r t -> shards:int -> (int -> 'r) -> 'r run
(** Raises [Invalid_argument] if [shards < 1]. *)

val ok : 'r t -> 'r run -> bool

val to_json : 'r t -> 'r run -> Horus_obs.Json.t
(** The cell's own report with one shard; otherwise
    [{shards, ok, fingerprint, wall_seconds, cells}]. *)

val gate :
  'r t -> ?report:string -> ?double_run:bool -> summary:('r run -> unit) ->
  passed:string -> shards:int -> (int -> 'r) -> int
(** A check subcommand's body: run, print [summary], write {!to_json}
    to [report], and with [double_run] run again and require every
    cell's key to agree. Prints [passed] and returns 0 when every cell
    passed and the keys agreed; returns 1 otherwise. *)
