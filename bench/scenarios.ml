(* Scenario workloads for the experiment harness: group formation,
   traffic generation, and simulated-metric measurements (wire packets,
   bytes, simulated latencies). These functions measure *protocol*
   costs, which are deterministic in the seed; wall-clock costs are
   bench/perf's. *)

open Horus

let form_group ?(config = Horus_sim.Net.default_config) ?(seed = 1) ?(record = true) ~spec ~n
    () =
  let world = World.create ~config ~seed () in
  let g = World.fresh_group_addr world in
  let founder = Group.join ~record (Endpoint.create world ~spec) g in
  World.run_for world ~duration:0.2;
  let rest =
    List.init (n - 1) (fun _ ->
        let m = Group.join ~record ~contact:(Group.addr founder) (Endpoint.create world ~spec) g in
        World.run_for world ~duration:0.4;
        m)
  in
  World.run_for world ~duration:2.0;
  (world, founder :: rest)

let wire_stats world =
  let s = Horus_sim.Net.stats (World.net world) in
  (s.Horus_sim.Net.sent, s.Horus_sim.Net.bytes_sent)

(* Cast [msgs] messages of [size] bytes from member 0 over [duration]
   of simulated time; return wire packets and bytes consumed per
   application message (protocol overhead included). *)
type traffic_cost = {
  packets_per_msg : float;
  bytes_per_msg : float;
  overhead_bytes_per_msg : float;  (* wire bytes beyond the payload itself *)
  delivered_everywhere : bool;
}

(* Stacks without a membership layer get their destination sets
   installed by hand. *)
let install_symmetric_views members =
  match members with
  | [] -> ()
  | first :: _ ->
    let v =
      Horus_hcpi.View.create ~group:(Group.group first) ~ltime:0
        ~members:(List.sort Addr.compare_endpoint (List.map Group.addr members))
    in
    List.iter (fun m -> Group.install_view m v) members

(* [on_world] (here and in [flush_latency]) runs after the workload
   settles and before the world is dropped — the JSON bench mode uses
   it to snapshot the world's metrics registry. *)
let traffic_cost ?(msgs = 50) ?(size = 100) ?(duration = 2.0) ?(membership = true)
    ?(on_world = fun (_ : World.t) -> ()) ~spec ~n () =
  let world, members = form_group ~spec ~n () in
  if not membership then install_symmetric_views members;
  let payload = String.make size 'x' in
  let sender = List.hd members in
  List.iter (fun m -> Group.clear_deliveries m) members;
  let sent0, bytes0 = wire_stats world in
  for i = 0 to msgs - 1 do
    World.after world ~delay:(0.002 *. float_of_int i) (fun () -> Group.cast sender payload)
  done;
  World.run_for world ~duration;
  let sent1, bytes1 = wire_stats world in
  let fm = float_of_int msgs in
  let delivered_everywhere =
    List.for_all (fun m -> List.length (Group.casts m) = msgs) members
  in
  on_world world;
  (* Raw payload cost if the network carried the payload once per
     remote destination with no headers at all. *)
  let raw = float_of_int (size * (n - 1)) in
  { packets_per_msg = float_of_int (sent1 - sent0) /. fm;
    bytes_per_msg = float_of_int (bytes1 - bytes0) /. fm;
    overhead_bytes_per_msg = (float_of_int (bytes1 - bytes0) /. fm) -. raw;
    delivered_everywhere }

(* Flush latency (experiment E5 / Figure 2): simulated time from a
   member crash to the instant the last survivor installs the next
   view. Includes the failure-detection delay; [detect] reports the
   suspicion timeout so the table can show both. *)
let flush_latency ?(seed = 3) ?(spec = "MBRSHIP:FRAG:NAK:COM")
    ?(on_world = fun (_ : World.t) -> ()) ~n () =
  let world, members = form_group ~seed ~spec ~n () in
  let victim = List.nth members (n - 1) in
  let installed = Array.make n nan in
  List.iteri
    (fun i m ->
       Group.set_on_up m (fun ev ->
           match ev with
           | Event.U_view _ -> installed.(i) <- World.now world
           | _ -> ()))
    members;
  let t0 = World.now world in
  Endpoint.crash (Group.endpoint victim);
  World.run_for world ~duration:10.0;
  on_world world;
  let survivors_done =
    List.filteri (fun i _ -> i < n - 1) (Array.to_list installed)
  in
  if List.exists Float.is_nan survivors_done then None
  else Some (List.fold_left Float.max 0.0 survivors_done -. t0)

(* Member-join latency: simulated time from issuing the join until
   every member (old and new) has the enlarged view. *)
let join_latency ?(seed = 5) ~n () =
  let spec = "MBRSHIP:FRAG:NAK:COM" in
  let world, members = form_group ~seed ~spec ~n () in
  let t0 = World.now world in
  let joiner =
    Group.join ~contact:(Group.addr (List.hd members))
      (Endpoint.create world ~spec) (Group.group (List.hd members))
  in
  let all = members @ [ joiner ] in
  let deadline = t0 +. 10.0 in
  let rec poll () =
    if
      List.for_all
        (fun m -> match Group.view m with Some v -> View.size v = n + 1 | None -> false)
        all
    then Some (World.now world -. t0)
    else if World.now world >= deadline then None
    else begin
      World.run_for world ~duration:0.005;
      poll ()
    end
  in
  poll ()

(* Wire traffic in packets per simulated second, with member 0 casting
   steadily so that ack vectors keep changing — the regime in which the
   STABLE/PINWHEEL trade-off shows (E11). Also used idle (rate = 0). *)
let loaded_traffic ?(window = 5.0) ?(cast_every = 0.01) ~spec ~n () =
  let world, members = form_group ~record:false ~spec ~n () in
  let sender = List.hd members in
  if cast_every > 0.0 then begin
    let casts = int_of_float (window /. cast_every) in
    for i = 0 to casts - 1 do
      World.after world ~delay:(cast_every *. float_of_int i) (fun () ->
          Group.cast sender "load")
    done
  end;
  let sent0, bytes0 = wire_stats world in
  World.run_for world ~duration:window;
  let sent1, bytes1 = wire_stats world in
  ( float_of_int (sent1 - sent0) /. window,
    float_of_int (bytes1 - bytes0) /. window )

(* Control messages the membership machinery itself sends for one
   crash-driven view change (E12): the layers count their protocol
   unicasts (flush requests/replies, forwarded copies, installs, state
   exchanges), which excludes all background gossip. Summed over the
   survivors; [layers] names the layers whose counters to read. *)
let parse_counter ~key line =
  let klen = String.length key in
  let rec find i =
    if i + klen > String.length line then None
    else if String.sub line i klen = key then begin
      let j = ref (i + klen) in
      while !j < String.length line && line.[!j] >= '0' && line.[!j] <= '9' do
        incr j
      done;
      int_of_string_opt (String.sub line (i + klen) (!j - i - klen))
    end
    else find (i + 1)
  in
  find 0

let ctl_sent_of member ~layers =
  List.fold_left
    (fun acc layer ->
       match Group.focus member layer with
       | Some inst ->
         List.fold_left
           (fun acc line ->
              match parse_counter ~key:"ctl_sent=" line with
              | Some v -> acc + v
              | None -> acc)
           acc
           (inst.Horus_hcpi.Layer.dump ())
       | None -> acc)
    0 layers

let view_change_cost ?(seed = 9) ?(window = 2.0) ~spec ~layers ~n () =
  let world, members = form_group ~seed ~spec ~n () in
  let victim = List.nth members (n - 1) in
  let survivors = List.filteri (fun i _ -> i < n - 1) members in
  let before = List.fold_left (fun acc m -> acc + ctl_sent_of m ~layers) 0 survivors in
  Endpoint.crash (Group.endpoint victim);
  World.run_for world ~duration:window;
  let after = List.fold_left (fun acc m -> acc + ctl_sent_of m ~layers) 0 survivors in
  let settled =
    List.for_all
      (fun m -> match Group.view m with Some v -> View.size v = n - 1 | None -> false)
      survivors
  in
  if settled then Some (after - before) else None

(* Stability convergence time: cast one message, report how long until
   the sender's matrix shows it stable at every member. *)
let stability_latency ~spec ~n () =
  let world, members = form_group ~spec ~n () in
  let sender = List.hd members in
  let t0 = World.now world in
  Group.cast sender "probe";
  let deadline = t0 +. 5.0 in
  let rec poll () =
    let stable =
      match Group.stability sender with
      | Some s ->
        Array.length s.Event.acked > 0
        && Array.for_all (fun a -> a >= 1) s.Event.acked.(0)
      | None -> false
    in
    if stable then Some (World.now world -. t0)
    else if World.now world >= deadline then None
    else begin
      World.run_for world ~duration:0.005;
      poll ()
    end
  in
  poll ()

(* Total-order agreement latency: k concurrent casters; simulated time
   until every member has delivered all messages (identically). *)
let total_order_latency ?(msgs_each = 5) ~n () =
  let spec = "TOTAL:MBRSHIP:FRAG:NAK:COM" in
  let world, members = form_group ~spec ~n () in
  let t0 = World.now world in
  List.iteri
    (fun i m ->
       for k = 0 to msgs_each - 1 do
         World.after world ~delay:(0.001 *. float_of_int k) (fun () ->
             Group.cast m (Printf.sprintf "t%d-%d" i k))
       done)
    members;
  let want = msgs_each * n in
  let deadline = t0 +. 10.0 in
  let rec poll () =
    if List.for_all (fun m -> List.length (Group.casts m) = want) members then begin
      let seqs = List.map Group.casts members in
      let agreed = match seqs with s0 :: r -> List.for_all (fun s -> s = s0) r | [] -> true in
      Some (World.now world -. t0, agreed)
    end
    else if World.now world >= deadline then None
    else begin
      World.run_for world ~duration:0.005;
      poll ()
    end
  in
  poll ()
