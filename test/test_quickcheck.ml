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

(* --- Compact headers (Section 10, remedy 3) --- *)

module Compact = Horus_msg.Compact

(* A random layout: field i is ("L<i>", "f") with a random width, so
   (layer, name) pairs are unique by construction; each field comes
   with a random candidate value. *)
let compact_fields =
  QCheck.(list_of_size Gen.(1 -- 12) (pair (int_range 1 64) int64))

let layout_of fields =
  Compact.layout
    (List.mapi
       (fun i (bits, _) ->
          Compact.field ~layer:("L" ^ string_of_int i) ~name:"f" ~bits)
       fields)

let mask bits v =
  if bits >= 64 then v else Int64.logand v (Int64.sub (Int64.shift_left 1L bits) 1L)

let prop_compact_set_get =
  QCheck.Test.make ~name:"compact: write all slots, read all back (no slot overlap)"
    ~count:300 compact_fields
    (fun fields ->
       let lay = layout_of fields in
       let b = Compact.alloc lay in
       (* Write every slot first, then read every slot: a get only
          survives if no later set clobbered its bits. *)
       List.iteri (fun i (bits, v) -> Compact.set lay b ~slot:i (mask bits v)) fields;
       List.for_all
         (fun (i, (bits, v)) -> Compact.get lay b ~slot:i = mask bits v)
         (List.mapi (fun i f -> (i, f)) fields))

let prop_compact_tight =
  QCheck.Test.make ~name:"compact: layout is bit-tight and never beats padding"
    ~count:300 compact_fields
    (fun fields ->
       let lay = layout_of fields in
       let decl =
         List.mapi
           (fun i (bits, _) ->
              Compact.field ~layer:("L" ^ string_of_int i) ~name:"f" ~bits)
           fields
       in
       let bits = List.fold_left (fun acc (b, _) -> acc + b) 0 fields in
       Compact.total_bits lay = bits
       && Compact.total_bytes lay = ((bits + 7) / 8)
       && Compact.slot_count lay = List.length fields
       && Compact.padded_bytes decl >= Compact.total_bytes lay)

let prop_compact_find =
  QCheck.Test.make ~name:"compact: find returns the declaration slot" ~count:300
    compact_fields
    (fun fields ->
       let lay = layout_of fields in
       List.for_all
         (fun i -> Compact.find lay ~layer:("L" ^ string_of_int i) ~name:"f" = i)
         (List.init (List.length fields) (fun i -> i)))

let prop_compact_bits_roundtrip =
  QCheck.Test.make ~name:"compact: write_bits/read_bits roundtrip at any offset"
    ~count:500
    QCheck.(triple (int_range 0 100) (int_range 1 64) int64)
    (fun (bit_offset, bits, v) ->
       let b = Bytes.make 32 '\255' in
       Compact.write_bits b ~bit_offset ~bits (mask bits v);
       Compact.read_bits b ~bit_offset ~bits = mask bits v)

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
      ( "compact",
        [ QCheck_alcotest.to_alcotest prop_compact_set_get;
          QCheck_alcotest.to_alcotest prop_compact_tight;
          QCheck_alcotest.to_alcotest prop_compact_find;
          QCheck_alcotest.to_alcotest prop_compact_bits_roundtrip ] );
      ( "msg",
        [ QCheck_alcotest.to_alcotest prop_msg_split_rejoin ] ) ]
