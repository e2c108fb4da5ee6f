(* Property-based tests across the substrates: views, stack specs,
   run-length encoding, the event engine, and the property algebra.
   Complements the per-module suites with randomized invariants. *)

let unique_ids =
  (* Sorted, de-duplicated non-empty id lists. *)
  QCheck.map
    (fun l -> List.sort_uniq Int.compare (List.map abs l))
    QCheck.(list_of_size Gen.(1 -- 12) (int_bound 1000))

(* --- View --- *)

let view_of ids gid =
  Horus_hcpi.View.create ~group:(Horus_msg.Addr.group gid) ~ltime:0
    ~members:(List.map Horus_msg.Addr.endpoint ids)

let prop_view_rank_roundtrip =
  QCheck.Test.make ~name:"view: rank_of (nth i) = i" ~count:300 unique_ids (fun ids ->
      match ids with
      | [] -> true
      | _ ->
        let v = view_of ids 0 in
        List.for_all
          (fun i ->
             Horus_hcpi.View.rank_of v (Horus_hcpi.View.nth v i) = Some i)
          (List.init (Horus_hcpi.View.size v) (fun i -> i)))

let prop_view_wire_roundtrip =
  QCheck.Test.make ~name:"view: wire push/pop roundtrip" ~count:300 unique_ids (fun ids ->
      match ids with
      | [] -> true
      | _ ->
        let v = view_of ids 3 in
        let m = Horus_msg.Msg.create "" in
        Horus_hcpi.View.push m v;
        let v' = Horus_hcpi.View.pop m in
        Horus_hcpi.View.members v' = Horus_hcpi.View.members v
        && Horus_hcpi.View.equal_id (Horus_hcpi.View.id v') (Horus_hcpi.View.id v))

let prop_view_successor =
  QCheck.Test.make ~name:"view: successor drops failed, keeps order, bumps ltime" ~count:300
    QCheck.(pair unique_ids unique_ids)
    (fun (ids, failed_ids) ->
       match ids with
       | [] -> true
       | _ ->
         let v = view_of ids 0 in
         let failed = List.map Horus_msg.Addr.endpoint failed_ids in
         (match Horus_hcpi.View.successor v ~failed ~joiners:[] with
          | None ->
            (* everyone failed *)
            List.for_all (fun i -> List.mem i failed_ids) ids
          | Some v' ->
            Horus_hcpi.View.ltime v' = Horus_hcpi.View.ltime v + 1
            && List.for_all
                 (fun m ->
                    not (List.exists (Horus_msg.Addr.equal_endpoint m) failed))
                 (Horus_hcpi.View.members v')
            (* survivors keep their relative order *)
            && (let survivors =
                  List.filter
                    (fun m -> not (List.exists (Horus_msg.Addr.equal_endpoint m) failed))
                    (Horus_hcpi.View.members v)
                in
                survivors = Horus_hcpi.View.members v')))

(* --- Spec --- *)

let layer_name =
  QCheck.Gen.(
    map
      (fun (c, rest) -> String.make 1 c ^ rest)
      (pair (char_range 'A' 'Z')
         (string_size ~gen:(char_range 'A' 'Z') (0 -- 6))))

let spec_gen =
  QCheck.Gen.(
    list_size (1 -- 6)
      (pair layer_name
         (list_size (0 -- 3)
            (pair (string_size ~gen:(char_range 'a' 'z') (1 -- 5))
               (map string_of_int (0 -- 999))))))

let spec_arb = QCheck.make spec_gen

let prop_spec_roundtrip =
  QCheck.Test.make ~name:"spec: to_string . parse = id" ~count:500 spec_arb (fun layers ->
      let s =
        String.concat ":"
          (List.map
             (fun (name, params) ->
                match params with
                | [] -> name
                | kvs ->
                  name ^ "(" ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) kvs)
                  ^ ")")
             layers)
      in
      let parsed = Horus_hcpi.Spec.parse s in
      Horus_hcpi.Spec.to_string parsed = s
      && Horus_hcpi.Spec.names parsed = List.map fst layers)

(* --- RLE --- *)

let prop_rle_roundtrip =
  QCheck.Test.make ~name:"rle: decode . encode = id" ~count:500
    QCheck.(string_of_size Gen.(0 -- 500))
    (fun s ->
       let b = Bytes.of_string s in
       Bytes.to_string (Horus_layers.Rle.decode (Horus_layers.Rle.encode b)) = s)

let prop_rle_compresses_runs =
  QCheck.Test.make ~name:"rle: long runs shrink" ~count:100
    QCheck.(pair (make Gen.(char_range 'a' 'z')) (int_range 10 400))
    (fun (c, n) ->
       let b = Bytes.make n c in
       Bytes.length (Horus_layers.Rle.encode b) < n)

(* --- Engine --- *)

let prop_engine_fires_in_time_order =
  QCheck.Test.make ~name:"engine: events fire in time order" ~count:300
    QCheck.(list_of_size Gen.(0 -- 40) (int_bound 10_000))
    (fun delays ->
       let e = Horus_sim.Engine.create () in
       let fired = ref [] in
       List.iter
         (fun d ->
            let at = float_of_int d /. 1000.0 in
            ignore (Horus_sim.Engine.schedule e ~delay:at (fun () -> fired := at :: !fired)))
         delays;
       Horus_sim.Engine.run e;
       let order = List.rev !fired in
       order = List.sort Float.compare order
       && List.length order = List.length delays)

(* --- property algebra --- *)

let propset = QCheck.map Horus_props.Property.Set.of_numbers QCheck.(list (int_range 1 16))

let layer_row =
  QCheck.map
    (fun (r, (p, i)) ->
       { Horus_props.Layer_spec.name = "X";
         requires = r;
         provides = p;
         inherits = i;
         conflicts = Horus_props.Property.Set.empty;
         cost = 1 })
    (QCheck.pair propset (QCheck.pair propset propset))

let prop_step_output_bounded =
  QCheck.Test.make ~name:"check: step output ⊆ provides ∪ below" ~count:500
    (QCheck.pair propset layer_row)
    (fun (below, row) ->
       match Horus_props.Check.step below row with
       | Error _ -> true
       | Ok above ->
         Horus_props.Property.Set.subset above
           (Horus_props.Property.Set.union row.Horus_props.Layer_spec.provides below))

let prop_step_includes_provides =
  QCheck.Test.make ~name:"check: step output ⊇ provides" ~count:500
    (QCheck.pair propset layer_row)
    (fun (below, row) ->
       match Horus_props.Check.step below row with
       | Error _ -> true
       | Ok above ->
         Horus_props.Property.Set.subset row.Horus_props.Layer_spec.provides above)

let prop_search_cost_no_worse_than_enumeration =
  QCheck.Test.make ~name:"search: minimal among enumerated stacks" ~count:50
    QCheck.(list_of_size Gen.(1 -- 2) (int_range 1 16))
    (fun req_n ->
       let net = Horus_props.Property.Set.of_numbers [ 1 ] in
       let required = Horus_props.Property.Set.of_numbers req_n in
       match Horus_props.Search.search ~net ~required () with
       | None ->
         (* then no enumerated stack may satisfy it either *)
         Horus_props.Search.enumerate ~net ~required ~max_depth:4 () = []
       | Some r ->
         let enumerated = Horus_props.Search.enumerate ~net ~required ~max_depth:4 () in
         List.for_all
           (fun stack -> Horus_props.Check.total_cost stack >= r.Horus_props.Search.cost)
           enumerated)

(* --- Msg splitting --- *)

let prop_msg_split_rejoin =
  QCheck.Test.make ~name:"msg: of_sub split + concat = id" ~count:300
    QCheck.(pair (string_of_size Gen.(1 -- 200)) small_nat)
    (fun (s, k) ->
       let open Horus_msg in
       let m = Msg.create s in
       let k = k mod (String.length s + 1) in
       let buf, off, len = Msg.view m in
       let head = Msg.of_sub buf ~off ~len:k in
       let tail = Msg.of_sub buf ~off:(off + k) ~len:(len - k) in
       Msg.to_string (Msg.concat [ head; tail ]) = s
       && (Msg.append head (Msg.to_bytes tail); Msg.to_string head = s))

(* --- Msg aliases against a copy-based model --- *)

(* The same operations run on a message with up to two frozen aliases
   and on a model in which every alias is an independent copy. Any
   write must move whichever buffer it would share, so every live byte
   agrees with the model after every step: no alias sees a write to
   the original or to another alias, and a write to an alias leaves
   the original untouched. *)
type alias_op =
  | A_freeze                 (* the original grows an alias (at most two) *)
  | A_push8 of int * int     (* target (0 = original, i = i-th alias), value *)
  | A_push32 of int * int
  | A_push_string of int * string
  | A_pop8 of int
  | A_append of int * string
  | A_replace of int * string
  | A_mark of int
  | A_restore of int         (* back to the target's mark, over pops only *)

let alias_op_gen =
  QCheck.Gen.(
    let tgt = int_bound 2 and str = string_size ~gen:printable (0 -- 12) in
    frequency
      [ (2, return A_freeze);
        (3, map2 (fun t v -> A_push8 (t, v)) tgt (int_bound 255));
        (2, map2 (fun t v -> A_push32 (t, v)) tgt (int_bound 0xffffff));
        (1, map2 (fun t x -> A_push_string (t, x)) tgt str);
        (4, map (fun t -> A_pop8 t) tgt);
        (2, map2 (fun t x -> A_append (t, x)) tgt str);
        (1, map2 (fun t x -> A_replace (t, x)) tgt str);
        (2, map (fun t -> A_mark t) tgt);
        (2, map (fun t -> A_restore t) tgt) ])

let pp_alias_op = function
  | A_freeze -> "freeze"
  | A_push8 (t, v) -> Printf.sprintf "push8 #%d %d" t v
  | A_push32 (t, v) -> Printf.sprintf "push32 #%d %d" t v
  | A_push_string (t, x) -> Printf.sprintf "push_string #%d %S" t x
  | A_pop8 t -> Printf.sprintf "pop8 #%d" t
  | A_append (t, x) -> Printf.sprintf "append #%d %S" t x
  | A_replace (t, x) -> Printf.sprintf "replace #%d %S" t x
  | A_mark t -> Printf.sprintf "mark #%d" t
  | A_restore t -> Printf.sprintf "restore #%d" t

let prop_msg_aliases_model =
  QCheck.Test.make ~name:"msg: frozen aliases agree with a copy-based model" ~count:1000
    (QCheck.make
       ~print:(fun (s, ops) -> Printf.sprintf "%S: %s" s (String.concat "; " (List.map pp_alias_op ops)))
       QCheck.Gen.(pair (string_size (0 -- 40)) (list_size (1 -- 60) alias_op_gen)))
    (fun (s, ops) ->
       let open Horus_msg in
       (* Slot 0 is the original; slots 1 and 2 its aliases. Each slot is
          (real, model, mark) — a mark is dropped by any write, so a
          restore only ever undoes pops. *)
       let real = Array.make 3 (Msg.create s) and model = Array.make 3 (Msg.create s) in
       let marks = Array.make 3 None and n = ref 1 in
       let slot t = if t < !n then t else 0 in
       let write t f =
         marks.(t) <- None;
         f real.(t);
         f model.(t)
       in
       let step = function
         | A_freeze ->
           if !n < 3 then begin
             real.(!n) <- Msg.freeze real.(0);
             model.(!n) <- Msg.copy model.(0);
             incr n
           end;
           true
         | A_push8 (t, v) -> write (slot t) (fun m -> Msg.push_u8 m v); true
         | A_push32 (t, v) -> write (slot t) (fun m -> Msg.push_u32 m v); true
         | A_push_string (t, x) -> write (slot t) (fun m -> Msg.push_string m x); true
         | A_append (t, x) -> write (slot t) (fun m -> Msg.append m (Bytes.of_string x)); true
         | A_replace (t, x) -> write (slot t) (fun m -> Msg.replace m (Bytes.of_string x)); true
         | A_pop8 t ->
           let t = slot t in
           if Msg.length real.(t) = 0 then true
           else Msg.pop_u8 real.(t) = Msg.pop_u8 model.(t)
         | A_mark t ->
           let t = slot t in
           marks.(t) <- Some (Msg.mark real.(t), Msg.mark model.(t));
           true
         | A_restore t ->
           let t = slot t in
           (match marks.(t) with
            | Some (r, m) -> Msg.restore real.(t) r; Msg.restore model.(t) m
            | None -> ());
           true
       in
       List.for_all
         (fun op ->
            step op
            && List.for_all
                 (fun i -> Msg.to_string real.(i) = Msg.to_string model.(i))
                 (List.init !n Fun.id))
         ops)

(* --- Seq_ring and Fifo against list/table models --- *)

type ring_op = R_set of int * int | R_remove of int | R_drop_below of int | R_clear

let ring_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun k v -> R_set (k, v)) (int_bound 40) small_nat);
        (3, map (fun k -> R_remove k) (int_bound 40));
        (2, map (fun k -> R_drop_below k) (int_bound 44));
        (1, return R_clear) ])

let pp_ring_op = function
  | R_set (k, v) -> Printf.sprintf "set %d %d" k v
  | R_remove k -> Printf.sprintf "remove %d" k
  | R_drop_below k -> Printf.sprintf "drop_below %d" k
  | R_clear -> "clear"

let prop_seq_ring_model =
  QCheck.Test.make ~name:"seq_ring: agrees with a sorted association list" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_ring_op ops))
       QCheck.Gen.(list_size (1 -- 80) ring_op_gen))
    (fun ops ->
       let module R = Horus_util.Seq_ring in
       let r = R.create ~dummy:(-1) in
       let model = ref [] in
       List.for_all
         (fun op ->
            (match op with
             | R_set (k, v) ->
               R.set r k v;
               model := (k, v) :: List.remove_assoc k !model
             | R_remove k ->
               R.remove r k;
               model := List.remove_assoc k !model
             | R_drop_below f ->
               R.drop_below r f;
               model := List.filter (fun (k, _) -> k >= f) !model
             | R_clear ->
               R.clear r;
               model := []);
            let sorted = List.sort compare !model in
            let held = ref [] in
            R.iter (fun k v -> held := (k, v) :: !held) r;
            List.rev !held = sorted
            && R.length r = List.length sorted
            && (sorted = [] || R.lowest r = fst (List.hd sorted))
            && List.for_all
                 (fun k ->
                    R.mem r k = List.mem_assoc k sorted
                    && (not (R.mem r k) || R.get r k = List.assoc k sorted))
                 (List.init 45 Fun.id))
         ops)

let prop_fifo_model =
  QCheck.Test.make ~name:"fifo: pops in push order across growth and wrap" ~count:300
    QCheck.(list (option small_nat))
    (fun ops ->
       (* Some x pushes x, None pops (when non-empty). *)
       let q = Horus_util.Fifo.create ~dummy:(-1) in
       let model = Queue.create () in
       List.for_all
         (function
           | Some x ->
             Horus_util.Fifo.push q x;
             Queue.push x model;
             true
           | None ->
             Horus_util.Fifo.is_empty q = Queue.is_empty model
             && (Queue.is_empty model || Horus_util.Fifo.pop q = Queue.pop model))
         ops
       &&
       let rest = ref [] in
       while not (Horus_util.Fifo.is_empty q) do
         rest := Horus_util.Fifo.pop q :: !rest
       done;
       List.rev !rest = List.of_seq (Queue.to_seq model))

(* --- Delivery_log against the tuple-keyed reference model ---

   The model is the log as it was first written: hash tables keyed by
   (origin, seq) for the store and the stash, and by origin for the
   next expected numbers, with a stability GC that sweeps the whole
   store. The ring-laned log must agree with it on every observable:
   next_expected, vector, copies, size, ooo_pending and the order of
   the deliveries. *)

module Log_model = struct
  type t = {
    store : (int * int, string) Hashtbl.t;
    delivered : (int, int) Hashtbl.t;
    ooo : (int * int, int * string) Hashtbl.t;
    mutable out : (int * string) list;  (* rank, payload; newest first *)
  }

  let create () =
    { store = Hashtbl.create 8; delivered = Hashtbl.create 8; ooo = Hashtbl.create 8; out = [] }

  let reset t =
    Hashtbl.reset t.store;
    Hashtbl.reset t.delivered;
    Hashtbl.reset t.ooo

  let next_expected t o = Option.value (Hashtbl.find_opt t.delivered o) ~default:0

  let record t ~origin ~seq p = Hashtbl.replace t.store (origin, seq) p

  let advance t ~origin ~seq ~payload =
    Hashtbl.replace t.delivered origin (seq + 1);
    record t ~origin ~seq payload

  let rec accept t ~origin ~seq ~rank p =
    let expected = next_expected t origin in
    if seq < expected then ()
    else if seq > expected then Hashtbl.replace t.ooo (origin, seq) (rank, p)
    else begin
      Hashtbl.replace t.delivered origin (expected + 1);
      record t ~origin ~seq p;
      t.out <- (rank, p) :: t.out;
      match Hashtbl.find_opt t.ooo (origin, seq + 1) with
      | Some (r, p') ->
        Hashtbl.remove t.ooo (origin, seq + 1);
        accept t ~origin ~seq:(seq + 1) ~rank:r p'
      | None -> ()
    end

  let vector t = List.sort compare (Hashtbl.fold (fun o n acc -> (o, n) :: acc) t.delivered [])

  let copies t =
    List.sort compare (Hashtbl.fold (fun (o, s) p acc -> (o, s, p) :: acc) t.store [])

  let gc t ~floor_of =
    Hashtbl.iter
      (fun (o, s) _ -> if s < floor_of o then Hashtbl.remove t.store (o, s))
      (Hashtbl.copy t.store)
end

type log_op =
  | L_record of int * int * string
  | L_accept of int * int * int * string  (* origin, seq, rank, payload *)
  | L_advance of int * string             (* at the origin's next expected seq *)
  | L_gc of int array                     (* floor per origin *)
  | L_reset

let origins = 4

let log_op_gen =
  QCheck.Gen.(
    let origin = int_bound (origins - 1) and seq = int_bound 24 in
    let payload = map (fun i -> "p" ^ string_of_int i) small_nat in
    frequency
      [ (2, map3 (fun o s p -> L_record (o, s, p)) origin seq payload);
        (8, map3 (fun (o, s) r p -> L_accept (o, s, r, p)) (pair origin seq) (int_bound 5) payload);
        (1, map2 (fun o p -> L_advance (o, p)) origin payload);
        (2, map (fun l -> L_gc (Array.of_list l)) (list_repeat origins (int_bound 28)));
        (1, return L_reset) ])

let pp_log_op = function
  | L_record (o, s, p) -> Printf.sprintf "record o%d s%d %s" o s p
  | L_accept (o, s, r, p) -> Printf.sprintf "accept o%d s%d r%d %s" o s r p
  | L_advance (o, p) -> Printf.sprintf "advance o%d %s" o p
  | L_gc fl ->
    Printf.sprintf "gc [%s]" (String.concat "," (Array.to_list (Array.map string_of_int fl)))
  | L_reset -> "reset"

let prop_delivery_log_model =
  QCheck.Test.make ~name:"delivery_log: agrees with the tuple-keyed model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map pp_log_op ops))
       QCheck.Gen.(list_size (1 -- 120) log_op_gen))
    (fun ops ->
       let open Horus_layers in
       let out = ref [] in
       (* The receiver writes to every message it is handed, as an
          application may: the log's copies must not change. *)
       let log =
         Delivery_log.create ~emit_up:(function
           | Horus_hcpi.Event.U_cast (rank, m, _) ->
             out := (rank, Horus_msg.Msg.to_string m) :: !out;
             Horus_msg.Msg.push_u32 m 0xdeadbeef;
             Horus_msg.Msg.append m (Bytes.of_string "junk")
           | _ -> ())
       in
       let model = Log_model.create () in
       List.for_all
         (fun op ->
            (match op with
             | L_record (o, s, p) ->
               Delivery_log.record log ~origin:o ~seq:s (Horus_msg.Msg.create p);
               Log_model.record model ~origin:o ~seq:s p
             | L_accept (o, s, r, p) ->
               Delivery_log.accept log ~origin:o ~seq:s ~rank:r (Horus_msg.Msg.create p) [];
               Log_model.accept model ~origin:o ~seq:s ~rank:r p
             | L_advance (o, p) ->
               let s = Log_model.next_expected model o in
               Delivery_log.advance log ~origin:o ~seq:s ~payload:(Horus_msg.Msg.create p);
               Log_model.advance model ~origin:o ~seq:s ~payload:p
             | L_gc floors ->
               Delivery_log.gc log ~floor_of:(fun o -> floors.(o));
               Log_model.gc model ~floor_of:(fun o -> floors.(o))
             | L_reset ->
               Delivery_log.reset log;
               Log_model.reset model);
            List.for_all
              (fun o -> Delivery_log.next_expected log o = Log_model.next_expected model o)
              (List.init (origins + 1) Fun.id)
            && Delivery_log.vector log = Log_model.vector model
            && Delivery_log.copies log = Log_model.copies model
            && Delivery_log.size log = Hashtbl.length model.Log_model.store
            && Delivery_log.ooo_pending log = Hashtbl.length model.Log_model.ooo
            && !out = model.Log_model.out)
         ops)

let () =
  Alcotest.run "quickcheck"
    [ ( "view",
        [ QCheck_alcotest.to_alcotest prop_view_rank_roundtrip;
          QCheck_alcotest.to_alcotest prop_view_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_view_successor ] );
      ( "spec",
        [ QCheck_alcotest.to_alcotest prop_spec_roundtrip ] );
      ( "rle",
        [ QCheck_alcotest.to_alcotest prop_rle_roundtrip;
          QCheck_alcotest.to_alcotest prop_rle_compresses_runs ] );
      ( "engine",
        [ QCheck_alcotest.to_alcotest prop_engine_fires_in_time_order ] );
      ( "algebra",
        [ QCheck_alcotest.to_alcotest prop_step_output_bounded;
          QCheck_alcotest.to_alcotest prop_step_includes_provides;
          QCheck_alcotest.to_alcotest prop_search_cost_no_worse_than_enumeration ] );
      ( "msg",
        [ QCheck_alcotest.to_alcotest prop_msg_split_rejoin;
          QCheck_alcotest.to_alcotest prop_msg_aliases_model ] );
      ( "rings",
        [ QCheck_alcotest.to_alcotest prop_seq_ring_model;
          QCheck_alcotest.to_alcotest prop_fifo_model ] );
      ( "layers",
        [ QCheck_alcotest.to_alcotest prop_delivery_log_model ] ) ]
