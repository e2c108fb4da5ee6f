(** The executable face of the property algebra: which Table-4
    properties a conformance run can check dynamically, and — when a
    run falsifies one — whether the algebra blames a layer
    implementation or a Table-3 encoding. *)

val runnable : Property.t list
(** Properties with a dynamic counterpart in lib/check's invariant
    library (P3, P4, P5, P6, P9, P12, P15), in Table-4 order. *)

val slice : Property.Set.t -> Property.t list
(** The runnable subset of a derived property set, in Table-4 order:
    the contract a conformance run must check for that stack. *)

val strip_provides : Property.t -> Layer_spec.t -> Layer_spec.t
(** Remove the property from the row's provides column, leaving
    requires and inherits untouched. *)

val rederive_without :
  net:Property.Set.t ->
  Layer_spec.t list ->
  Property.t ->
  (Property.Set.t, Check.error) result
(** Re-run [Check.derive] with the property stripped from every
    provides column in the stack (top-first, as [Check.derive]). *)

type blame = {
  b_property : Property.t;
  b_providers : string list;
      (** rows in the stack (top-first) whose provides column claims
          the property *)
  b_without : (Property.Set.t, Check.error) result;
      (** the re-derivation with every such claim stripped *)
  b_from_net : bool;
      (** the property still derives without the claims — it reaches
          the application purely through the net and inherits columns *)
}

val blame : net:Property.Set.t -> Layer_spec.t list -> Property.t -> blame
(** Given a stack whose run falsified [p], work out where the algebra
    says the claim of [p] came from. *)

val classification : blame -> string
(** One sentence for the conformance report: layer bug (a provides
    entry was falsified — the named layer, or its Table-3 row,
    overclaims) vs encoding bug (the property derives with no provider
    claim at all, so an inherits column or the net model overclaims). *)
