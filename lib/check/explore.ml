(* Bounded systematic schedule exploration.

   The Engine chooser turns dispatch nondeterminism into an explicit
   choice tree: whenever several pending events fall within [horizon]
   of the queue head, the adversary picks which one runs. This module
   enumerates that tree with a stateless depth-bounded DFS — each tree
   node is visited by re-running the whole (deterministic) scenario
   with a choice prefix, defaulting to choice 0 past the prefix. An
   outcome-fingerprint cache reports how many distinct terminal
   behaviours the search actually saw (it is an honest statistic, not
   a soundness claim: we fingerprint outcomes, not intermediate
   states). *)

type config = {
  horizon : float;
  width : int;
  from_time : float;    (* chooser active from traffic start + this *)
  depth : int;          (* DFS branches only in the first [depth] choice points *)
  max_runs : int;
}

let default_config =
  { horizon = 0.002;
    width = 3;
    from_time = 0.0;
    depth = 6;
    max_runs = 200 }

type stats = {
  runs : int;
  distinct : int;      (* distinct outcome fingerprints *)
  truncated : bool;    (* stopped by max_runs *)
}

type outcome = {
  found : (Scenario.t * Runner.result) option;
      (* the failing scenario, with its schedule made concrete *)
  stats : stats;
}

let rec rev_strip_zeros = function
  | 0 :: rest -> rev_strip_zeros rest
  | l -> l

let with_sched (sc : Scenario.t) cfg ~choices =
  { sc with
    Scenario.sched =
      Some
        { Scenario.s_horizon = cfg.horizon;
          s_width = cfg.width;
          s_from = cfg.from_time;
          s_choices = choices } }

(* Replace a short prefix by the decisions actually taken, so the
   returned counterexample replays the whole schedule explicitly.
   Trailing zeros are dropped: past the prefix the chooser defaults to
   0 anyway, and timer clusters in the settle tail would otherwise pad
   the schedule with thousands of no-op decisions. *)
let concretize sc cfg (r : Runner.result) =
  let choices =
    List.rev (rev_strip_zeros (List.rev r.Runner.r_taken))
  in
  with_sched sc cfg ~choices

let explore ?(config = default_config) ?(fastpath = false)
    (sc : Scenario.t) =
  let cfg = config in
  let seen = Hashtbl.create 251 in
  let runs = ref 0 and distinct = ref 0 and truncated = ref false in
  let found = ref None in
  let note_run r =
    incr runs;
    let fp = Runner.fingerprint r in
    if not (Hashtbl.mem seen fp) then begin
      Hashtbl.replace seen fp ();
      incr distinct
    end;
    if Runner.failed r && !found = None then
      found := Some (concretize sc cfg r, r)
  in
  (* DFS over choice prefixes. The frontier holds prefixes (reversed
     for cheap construction); visiting a prefix runs it and, for every
     choice point past the prefix but inside the depth bound, pushes
     one child per non-default decision. *)
  let frontier = ref [ [] ] in
  while !found = None && !frontier <> [] && not !truncated do
    match !frontier with
    | [] -> ()
    | prefix :: rest ->
      frontier := rest;
      if !runs >= cfg.max_runs then truncated := true
      else begin
        let r =
          Runner.run ~fastpath (with_sched sc cfg ~choices:prefix)
        in
        note_run r;
        if !found = None then begin
          let plen = List.length prefix in
          let children = ref [] in
          List.iteri
            (fun j arity ->
               if j >= plen && j < cfg.depth && arity > 1 then begin
                 let zeros = List.init (j - plen) (fun _ -> 0) in
                 for c = arity - 1 downto 1 do
                   children := (prefix @ zeros @ [ c ]) :: !children
                 done
               end)
            r.Runner.r_arities;
          frontier := !children @ !frontier
        end
      end
  done;
  { found = !found; stats = { runs = !runs; distinct = !distinct; truncated = !truncated } }
