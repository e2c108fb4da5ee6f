(* The one campaign harness (see campaign.mli). With one cell the
   combined fingerprint IS that cell's own fingerprint, so the sharded
   path is a strict superset of the plain one. *)

module Json = Horus_obs.Json

let fingerprint j = Horus_util.Crc.checksum_string (Json.to_string ~indent:false j)

type 'r t = {
  ok : 'r -> bool;
  fingerprint : 'r -> int64;
  key : 'r -> string;
  to_json : 'r -> Json.t;
}

type 'r run = {
  shards : int;
  cells : 'r array;
  combined : int64;
  wall : float;
}

let cell_name ~shards name i =
  if shards = 1 then name else Printf.sprintf "%s#s%d" name i

let run t ~shards cell =
  if shards < 1 then invalid_arg "Campaign.run: shards must be >= 1";
  let t0 = Unix.gettimeofday () in
  let cells =
    if shards = 1 then [| cell 0 |]
    else begin
      (* Populate the global layer registry on this domain BEFORE any
         cell domain races to do it lazily inside World.create. *)
      Horus_layers.Init.register_all ();
      Horus_transport.Shard.run (Horus_transport.Shard.create shards) (fun ctx ->
          cell ctx.Horus_transport.Shard.sx_id)
    end
  in
  let combined =
    if shards = 1 then t.fingerprint cells.(0)
    else
      Horus_util.Crc.checksum_string
        (String.concat "|" (Array.to_list (Array.map t.key cells)))
  in
  { shards; cells; combined; wall = Unix.gettimeofday () -. t0 }

let ok t r = Array.for_all t.ok r.cells

let to_json t r =
  if r.shards = 1 then t.to_json r.cells.(0)
  else
    Json.Obj
      [ ("shards", Json.Int r.shards);
        ("ok", Json.Bool (ok t r));
        ("fingerprint", Json.String (Printf.sprintf "%016Lx" r.combined));
        ("wall_seconds", Json.Float r.wall);
        ("cells", Json.List (Array.to_list (Array.map t.to_json r.cells))) ]

let gate t ?report ?(double_run = false) ~summary ~passed ~shards cell =
  let r = run t ~shards cell in
  summary r;
  (match report with
   | Some path ->
     Out_channel.with_open_text path (fun oc ->
         output_string oc (Json.to_string ~indent:true (to_json t r)));
     Format.printf "report written to %s@." path
   | None -> ());
  let agreed =
    (not double_run)
    ||
    let keys r = Array.map t.key r.cells in
    let r2 = run t ~shards cell in
    let k1 = keys r and k2 = keys r2 in
    if k1 = k2 then Format.printf "double run: fingerprints agree@."
    else begin
      Format.printf "DETERMINISM VIOLATION: second run fingerprint %016Lx@." r2.combined;
      Array.iteri
        (fun i k -> if k <> k2.(i) then Format.printf "  cell %d: %s, then %s@." i k k2.(i))
        k1
    end;
    k1 = k2
  in
  if ok t r && agreed then begin
    Format.printf "%s@." passed;
    0
  end
  else 1
