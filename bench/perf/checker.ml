(* End-of-run delivery check. Each member logs, in delivery order, what
   {!Payload.read} made of every cast it delivered. Given casts
   [0, issued), a run is correct when every member delivered every
   cast exactly once, intact, in one order shared by all members (TOTAL
   promises a total order). A cast that misses any of these counts as
   failed once, however many checks it misses.

   The reference order is the longest log (lowest member on ties):
   another member agrees with it when the reference positions of its
   deliveries strictly increase. A gap is not a reordering, so a member
   that missed one cast fails only that cast. *)

type report = {
  issued : int;
  failed : int;       (* distinct casts failing any check *)
  undelivered : int;  (* casts missing at one member or more *)
  duplicates : int;   (* deliveries beyond the first of a cast at a member *)
  misordered : int;   (* deliveries out of the reference order *)
  corrupt : int;      (* deliveries whose payload check failed *)
  unknown : int;      (* deliveries naming no issued cast *)
}

let ok r = r.failed = 0 && r.unknown = 0

let check ~issued (logs : int array array) =
  let members = Array.length logs in
  let lens = Array.map Array.length logs in
  let bad = Bytes.make issued '\000' in
  let mark seq = Bytes.set bad seq '\001' in
  let duplicates = ref 0 and misordered = ref 0 and corrupt = ref 0 and unknown = ref 0 in
  let reference = ref 0 in
  Array.iteri (fun m len -> if len > lens.(!reference) then reference := m) lens;
  let ref_pos = Array.make issued (-1) in
  for p = lens.(!reference) - 1 downto 0 do
    let s = Payload.seq_of logs.(!reference).(p) in
    if s >= 0 && s < issued then ref_pos.(s) <- p
  done;
  let got = Array.make issued 0 in
  for m = 0 to members - 1 do
    let seen = Bytes.make issued '\000' in
    let last = ref (-1) in
    for p = 0 to lens.(m) - 1 do
      let e = logs.(m).(p) in
      let s = Payload.seq_of e in
      if s < 0 || s >= issued then incr unknown
      else begin
        if e < 0 then begin incr corrupt; mark s end;
        if Bytes.get seen s <> '\000' then begin incr duplicates; mark s end
        else begin
          Bytes.set seen s '\001';
          got.(s) <- got.(s) + 1;
          let rp = ref_pos.(s) in
          if rp >= 0 then
            if rp <= !last then begin incr misordered; mark s end else last := rp
        end
      end
    done
  done;
  let undelivered = ref 0 and failed = ref 0 in
  for s = 0 to issued - 1 do
    if got.(s) < members then begin incr undelivered; mark s end;
    if Bytes.get bad s <> '\000' then incr failed
  done;
  { issued; failed = !failed; undelivered = !undelivered; duplicates = !duplicates;
    misordered = !misordered; corrupt = !corrupt; unknown = !unknown }

let pp ppf r =
  Format.fprintf ppf
    "issued %d, failed %d (undelivered %d, duplicates %d, misordered %d, corrupt %d, \
     unknown %d)"
    r.issued r.failed r.undelivered r.duplicates r.misordered r.corrupt r.unknown
