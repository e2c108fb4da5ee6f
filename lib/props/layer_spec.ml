(* Table 3: for each layer, the properties it Requires from the stack
   beneath it, the properties it Provides, and the properties it
   Inherits (passes through) from beneath.

   The scan of Table 3 in the paper is OCR-noisy; this encoding is
   anchored on (a) the R columns, which scan cleanly, (b) the prose
   description of each layer, and (c) the hard constraint that the
   Section 7 worked example — TOTAL:MBRSHIP:FRAG:NAK:COM over a network
   providing only P1 — must derive exactly
   {P3,P4,P6,P8,P9,P10,P11,P12,P15} (asserted in test/test_props.ml).

   Deliberate deviations are flagged with DEVIATION comments. *)

type t = {
  name : string;
  requires : Property.Set.t;
  provides : Property.Set.t;
  inherits : Property.Set.t;
  conflicts : Property.Set.t;
      (* properties that must NOT hold below the layer. Not in the
         paper's Table 3 — added after conformance fuzzing found that
         stacking a second membership service above an existing one
         (BMS:MBRSHIP:...) derives a fine-looking property set yet
         blackholes all delivery: the requires/provides/inherits
         algebra can state what a layer needs, but not what it cannot
         tolerate beneath it. Membership layers conflict with P15 —
         exactly one layer may own the view protocol. *)
  cost : int;  (* relative run-time cost, for minimal-stack synthesis *)
}

let spec ?(conflicts = []) ~name ~requires ~provides ~inherits ~cost () =
  { name;
    requires = Property.Set.of_numbers requires;
    provides = Property.Set.of_numbers provides;
    inherits = Property.Set.of_numbers inherits;
    conflicts = Property.Set.of_numbers conflicts;
    cost }

(* COM adapts a raw network to the HCPI. It recovers the source
   address of each message (P11) from the attachment, which knows the
   sender of every packet it hands up, and carries a length/magic
   envelope that detects byte reordering or truncation (P10).
   Ordering-style guarantees of the network underneath pass through. *)
let com =
  spec ~name:"COM" ~requires:[ 1 ] ~provides:[ 10; 11 ]
    ~inherits:[ 1; 2; 3; 4; 5; 6; 7; 12; 13 ] ~cost:1 ()

(* NFRAG fragments over networks without FIFO guarantees. *)
let nfrag =
  spec ~name:"NFRAG" ~requires:[ 1; 10; 11 ] ~provides:[ 12 ]
    ~inherits:[ 1; 2; 3; 4; 5; 6; 7; 10; 11 ] ~cost:3 ()

(* NAK turns best-effort into reliable FIFO (unicast and multicast) via
   sequence numbers and negative acknowledgements. Best-effort (P1) is
   deliberately NOT inherited: the delivery discipline above NAK is no
   longer "best effort". *)
let nak =
  spec ~name:"NAK" ~requires:[ 1; 10; 11 ] ~provides:[ 3; 4 ]
    ~inherits:[ 2; 5; 6; 7; 10; 11; 12 ] ~cost:4 ()

(* NNAK provides prioritized-effort delivery lanes. *)
let nnak =
  spec ~name:"NNAK" ~requires:[ 1; 10; 11 ] ~provides:[ 2 ]
    ~inherits:[ 1; 3; 4; 5; 6; 7; 10; 11; 12 ] ~cost:3 ()

(* FRAG fragments and reassembles large messages; depends on FIFO. *)
let frag =
  spec ~name:"FRAG" ~requires:[ 3; 4; 10; 11 ] ~provides:[ 12 ]
    ~inherits:[ 1; 2; 3; 4; 5; 6; 7; 10; 11; 13 ] ~cost:2 ()

(* MBRSHIP (Section 5) simulates a fail-stop environment: consistent
   views (P15) with virtually synchronous delivery (P9, and hence the
   weaker P8). *)
let mbrship =
  spec ~name:"MBRSHIP" ~requires:[ 3; 4; 10; 11; 12 ] ~provides:[ 8; 9; 15 ]
    ~conflicts:[ 15 ] ~inherits:[ 1; 2; 3; 4; 5; 6; 7; 10; 11; 12; 16 ] ~cost:8 ()

(* BMS: basic membership service — consistent views and the weaker
   semi-synchronous delivery, without the unstable-message flush. *)
let bms =
  spec ~name:"BMS" ~requires:[ 3; 4; 10; 11; 12 ] ~provides:[ 8; 15 ]
    ~conflicts:[ 15 ] ~inherits:[ 1; 2; 3; 4; 5; 6; 7; 10; 11; 12; 16 ] ~cost:5 ()

(* FLUSH upgrades semi-synchrony to full virtual synchrony by running
   the unstable-message flush of Figure 2 at view changes. *)
let flush =
  spec ~name:"FLUSH" ~requires:[ 3; 4; 8; 10; 11; 12; 15 ] ~provides:[ 9 ]
    ~inherits:[ 1; 2; 3; 4; 5; 6; 7; 8; 10; 11; 12; 15; 16 ] ~cost:4 ()

(* VSS: an alternative virtual-synchrony service over consistent
   views. *)
let vss =
  spec ~name:"VSS" ~requires:[ 3; 10; 11; 12; 15 ] ~provides:[ 9 ]
    ~inherits:[ 1; 2; 3; 4; 5; 6; 7; 8; 10; 11; 12; 15; 16 ] ~cost:5 ()

(* STABLE computes the application-defined stability matrix of
   Section 9. *)
let stable =
  spec ~name:"STABLE" ~requires:[ 3; 4; 8; 9; 10; 11; 12; 15 ] ~provides:[ 14 ]
    ~inherits:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 15; 16 ] ~cost:3 ()

(* PINWHEEL: rotating-aggregator stability — same property, lower
   background traffic. *)
let pinwheel =
  spec ~name:"PINWHEEL" ~requires:[ 3; 8; 9; 10; 15 ] ~provides:[ 14 ]
    ~inherits:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 15; 16 ] ~cost:2 ()

(* TOTAL: token-based total order over virtual synchrony (Section 7). *)
let total =
  spec ~name:"TOTAL" ~requires:[ 3; 8; 9; 15 ] ~provides:[ 6 ]
    ~inherits:[ 1; 2; 3; 4; 5; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16 ] ~cost:5 ()

(* ORDER(causal): causal delivery via vector timestamps.
   DEVIATION: the paper's row *requires* P13 (causal timestamps), but
   no layer in Table 3 provides P13; our layer carries its own vector
   timestamps and therefore provides P13 alongside P5, keeping causal
   stacks constructible. *)
let order_causal =
  spec ~name:"ORDER_CAUSAL" ~requires:[ 3; 8; 9; 15 ] ~provides:[ 5; 13 ]
    ~inherits:[ 1; 2; 3; 4; 6; 7; 8; 9; 10; 11; 12; 14; 15; 16 ] ~cost:3 ()

(* ORDER(safe): delays delivery until stability information from below
   (P14) shows a message is safe. *)
let order_safe =
  spec ~name:"ORDER_SAFE" ~requires:[ 3; 8; 9; 14; 15 ] ~provides:[ 7 ]
    ~inherits:[ 1; 2; 3; 4; 5; 6; 8; 9; 10; 11; 12; 13; 14; 15; 16 ] ~cost:3 ()

(* MERGE: automatic view merging of partitioned groups.
   DEVIATION: the paper's row also requires P1, but P1 is not inherited
   past NAK (the Section 7 derivation excludes it above the stack), so
   a literal reading would make MERGE unstackable over any reliable
   stack. Our MERGE reaches foreign partitions through the rendezvous
   service and the reliable in-view channels, so P1 is not needed. *)
let merge =
  spec ~name:"MERGE" ~requires:[ 3; 4; 8; 9; 10; 11; 12; 15 ] ~provides:[ 16 ]
    ~inherits:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15 ] ~cost:2 ()

(* The rows of Table 3, in the paper's order. *)
let table3 =
  [ com; nfrag; nak; nnak; frag; mbrship; bms; vss; flush; stable;
    pinwheel; total; order_causal; order_safe; merge ]

(* Auxiliary layers implemented in this repository but outside Table 3
   (from Figure 1's protocol-type list). They provide no new Table 4
   properties; they require only what they need to run and inherit
   everything, so stacks containing them derive unchanged property
   sets. *)
let transparent ~name ~requires ~cost () =
  spec ~name ~requires ~provides:[]
    ~inherits:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16 ] ~cost ()

(* HIER runs above a membership layer: it needs consistent views and
   reliable FIFO below (the representative is deduced from the view,
   so every member must see the same one) but adds no Table-4
   property of its own — within its sub-group it is transparent, and
   the parent-group bridge is a separate stack. No conflicts: exactly
   one membership layer still owns P15 below it. *)
let hier =
  spec ~name:"HIER" ~requires:[ 3; 4; 8; 10; 11; 15 ] ~provides:[]
    ~inherits:[ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 13; 14; 15; 16 ] ~cost:2 ()

let extras =
  [ hier;
    transparent ~name:"CHKSUM" ~requires:[ 1 ] ~cost:2 ();
    transparent ~name:"SIGN" ~requires:[ 1 ] ~cost:2 ();
    transparent ~name:"ENCRYPT" ~requires:[ 1 ] ~cost:2 ();
    transparent ~name:"COMPRESS" ~requires:[ 1 ] ~cost:2 ();
    transparent ~name:"FC" ~requires:[ 3; 4 ] ~cost:1 ();
    transparent ~name:"TRACE" ~requires:[] ~cost:1 ();
    transparent ~name:"LOG" ~requires:[ 3; 4 ] ~cost:3 ();
    transparent ~name:"CLOCKSYNC" ~requires:[ 3; 15 ] ~cost:2 ();
    transparent ~name:"DEADLINE" ~requires:[ 1 ] ~cost:1 ();
    transparent ~name:"ACCOUNT" ~requires:[] ~cost:1 ();
    transparent ~name:"BATCH" ~requires:[] ~cost:1 ();
    transparent ~name:"NOOP" ~requires:[] ~cost:0 () ]

let all = table3 @ extras

let find name = List.find_opt (fun s -> s.name = name) all

let find_exn name =
  match find name with
  | Some s -> s
  | None -> invalid_arg ("Layer_spec.find_exn: unknown layer " ^ name)

let pp fmt s =
  Format.fprintf fmt "%s: R=%a P=%a I=%a%s cost=%d" s.name Property.Set.pp s.requires
    Property.Set.pp s.provides Property.Set.pp s.inherits
    (if Property.Set.is_empty s.conflicts then ""
     else Format.asprintf " X=%a" Property.Set.pp s.conflicts)
    s.cost
