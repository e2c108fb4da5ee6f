(* The executable face of the property algebra.

   Table 3 predicts what a stack delivers; lib/check observes what a
   stack actually does. This module is the hinge between the two: it
   says which Table-4 properties have dynamic counterparts in the
   shared invariant library ("runnable" properties), reduces a derived
   property set to the slice a conformance run must check, and — when
   a run falsifies a property — re-derives the algebra with the
   offending claim removed so the report can say whether the blame
   lies with a layer implementation or with a Table-3 row.

   The bridge from a runnable property to a concrete Invariant
   predicate lives in lib/check (Conformance.checks_for); this module
   stays pure algebra so the dependency points the right way. *)

(* Properties with a dynamic counterpart in lib/check's invariant
   library, in Table 4 order:

     P3/P4  per-origin gap-free FIFO plus survivor completeness
     P5     causal delivery (checked by its FIFO necessary condition)
     P6     one shared delivery sequence across survivors
     P9     identical delivery cuts, deliveries inside the origin's view
     P12    large casts survive fragmentation end to end
     P15    same view id, same membership

   The rest of Table 4 is either not observable from delivery/view
   logs alone (P1, P2, P13, P14), is a weaker form of a runnable
   property (P8), or needs a scenario shape the conformance sweep
   does not drive yet (P7, P10, P11, P16). *)
let runnable =
  [ Property.P3_fifo_unicast; Property.P4_fifo_multicast; Property.P5_causal;
    Property.P6_total_order; Property.P9_virtually_synchronous;
    Property.P12_large_messages; Property.P15_consistent_views ]

let slice props = List.filter (Property.Set.mem props) runnable

(* --- blame assignment (Section 6 read backwards) --- *)

(* Remove [p] from a row's provides column, leaving requires/inherits
   untouched: the row still stacks the same, it just no longer claims
   to contribute [p]. *)
let strip_provides p (spec : Layer_spec.t) =
  { spec with
    Layer_spec.provides =
      Property.Set.diff spec.Layer_spec.provides (Property.Set.of_list [ p ]) }

let rederive_without ~net layers p = Check.derive ~net (List.map (strip_provides p) layers)

type blame = {
  b_property : Property.t;
  b_providers : string list;
      (* rows in the stack (top-first) whose provides column claims the
         property *)
  b_without : (Property.Set.t, Check.error) result;
      (* the re-derivation with every such claim stripped *)
  b_from_net : bool;
      (* the property still derives without the claims, i.e. it reaches
         the application purely through the network and inherits
         columns *)
}

let blame ~net layers p =
  let providers =
    List.filter_map
      (fun (s : Layer_spec.t) ->
         if Property.Set.mem s.Layer_spec.provides p then Some s.Layer_spec.name else None)
      layers
  in
  let without = rederive_without ~net layers p in
  let from_net =
    match without with Ok props -> Property.Set.mem props p | Error _ -> false
  in
  { b_property = p; b_providers = providers; b_without = without; b_from_net = from_net }

(* One sentence a conformance report can print: given that a run
   falsified [b_property], where does the algebra say the claim came
   from, and what would the contract be without it? *)
let classification b =
  let p = Format.asprintf "%a" Property.pp b.b_property in
  if b.b_from_net then
    Printf.sprintf
      "encoding bug: %s reaches the application through the network and the inherits \
       columns alone — some inherits entry (or the net model) overclaims"
      p
  else
    match b.b_providers with
    | [] ->
      (* Cannot happen for a property in the derived set unless it came
         from the net, but keep the report total. *)
      Printf.sprintf "encoding bug: the algebra derives %s yet no row in the stack provides it" p
    | provs ->
      let who = String.concat ", " provs in
      let tail =
        match b.b_without with
        | Ok props ->
          Printf.sprintf "without the claim the stack would derive %s and stay well-formed"
            (Property.Set.to_string props)
        | Error e ->
          Format.asprintf
            "without the claim the stack is ill-formed (%a) — layers above consume it"
            Check.pp_error e
      in
      Printf.sprintf
        "layer bug in %s (or its Table-3 row overclaims %s): the run falsified the \
         provides entry; %s"
        who p tail
