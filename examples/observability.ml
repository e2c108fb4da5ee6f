(* Observability tour: the focus/dump downcalls (Table 1), TRACE and
   ACCOUNT layers, installed views and per-layer rejection counters,
   the promiscuous wiretap, and the metrics registry — how you see
   what a running protocol stack is doing, at every level.

   Run with: dune exec examples/observability.exe *)

open Horus

let spec = "TRACE:ACCOUNT:TOTAL:MBRSHIP:FRAG:NAK:COM"

let () =
  let world = World.create ~seed:5 () in
  let g = World.fresh_group_addr world in

  (* Wiretap the physical medium: count frames per link. *)
  let frames = Hashtbl.create 8 in
  Horus_sim.Net.set_tap (World.net world)
    (Some
       (fun ~src ~dst payload ->
          let key = (src, dst) in
          let count, bytes =
            Option.value (Hashtbl.find_opt frames key) ~default:(0, 0)
          in
          Hashtbl.replace frames key (count + 1, bytes + Bytes.length payload)));

  let a = Group.join (Endpoint.create world ~spec) g in
  World.run_for world ~duration:0.5;
  let b = Group.join ~contact:(Group.addr a) (Endpoint.create world ~spec) g in
  World.run_for world ~duration:1.5;

  for i = 1 to 5 do
    Group.cast a (Printf.sprintf "message %d" i)
  done;
  (* A datagram too short for COM's envelope (the group id the
     simulated attachment routes on, then one byte): b's stack drops it
     and counts it under layers.COM.rejected. *)
  let runt = Bytes.create 5 in
  Bytes.set_int32_be runt 0 (Int32.of_int (Addr.group_id g));
  Horus_sim.Net.send (World.net world)
    ~src:(Addr.endpoint_id (Group.addr a))
    ~dst:(Addr.endpoint_id (Group.addr b))
    runt;
  World.run_for world ~duration:1.0;

  (* Level 1: the whole stack, layer by layer (the dump downcall). *)
  Format.printf "=== a's stack (dump downcall) ===@.";
  List.iter (fun line -> Format.printf "  %s@." line) (Group.dump a);

  (* Level 2: focus on one layer (the focus downcall). *)
  Format.printf "@.=== focus NAK (focus downcall) ===@.";
  (match Group.focus a "NAK" with
   | Some inst -> List.iter (fun l -> Format.printf "  %s@." l) (inst.Horus_hcpi.Layer.dump ())
   | None -> ());

  (* Level 3: what membership settled on, and what the layers refused.
     Every layer counts the events it cannot parse or will not serve as
     layers.<LAYER>.rejected; honest traffic never trips one. *)
  Format.printf "@.=== b's installed views ===@.";
  List.iter (fun v -> Format.printf "  %s@." (View.to_string v)) (Group.views b);
  Format.printf "@.=== rejections (layers.*.rejected) ===@.";
  (match Json.path [ "counters" ] (World.metrics_json world) with
   | Some (Json.Obj counters) ->
     List.iter
       (fun (key, v) ->
          if String.starts_with ~prefix:"layers." key && String.ends_with ~suffix:".rejected" key
          then Format.printf "  %-24s %6d@." key (Option.value (Json.to_int v) ~default:0))
       counters
   | _ -> ());

  (* Level 4: the wire itself. *)
  Format.printf "@.=== wiretap: frames per link ===@.";
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) frames []
  |> List.sort compare
  |> List.iter (fun ((src, dst), (count, bytes)) ->
      Format.printf "  e%d -> e%d: %4d frames, %6d bytes@." src dst count bytes);

  (* Level 5: the metrics registry — every HCPI crossing, the engine's
     dispatch-delay histogram and the wire stats as one machine-readable
     snapshot (what bench/main.exe --json embeds per experiment). *)
  Format.printf "@.=== metrics registry (per-layer crossings, selected) ===@.";
  (match World.metrics_json world with
   | Json.Obj _ as snapshot ->
     List.iter
       (fun key ->
          match Option.bind (Json.path [ "counters"; key ] snapshot) Json.to_int with
          | Some v -> Format.printf "  %-20s %6d@." key v
          | None -> ())
       [ "hcpi.down.TOTAL"; "hcpi.down.NAK"; "hcpi.up.NAK"; "hcpi.up.COM";
         "net.sent"; "net.bytes_sent" ]
   | _ -> ());

  Format.printf "@.five vantage points, one running system.@."
