(* Order statistics for the benchmark: nearest-rank percentiles over
   raw latency samples, and the median/quartiles of repeated runs. *)

(* Nearest rank: the smallest sample such that at least [p] of all
   samples are at or below it, i.e. sorted.(ceil (p * n) - 1). A
   percentile is only reported when at least [min_beyond] samples lie
   strictly past its rank; otherwise the tail is too thin to read. *)
let min_beyond = 10

let rank ~n p = max 1 (int_of_float (Float.ceil (p *. float_of_int n)))

let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then None
  else
    let r = rank ~n p in
    if n - r < min_beyond then None else Some sorted.(r - 1)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives
   them (the default "exclusive" method), so the numbers here match
   any script reading the same runs. With one value every quartile is
   that value. *)
let quartiles values =
  let s = Array.of_list values in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n = 0 then invalid_arg "Stats.quartiles: no values";
  if n = 1 then (s.(0), s.(0), s.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int (i * m - (j * 4)) in
      ((s.(j - 1) *. (4.0 -. delta)) +. (s.(j) *. delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m
