(* Order statistics over host-time samples. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median_f a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Nearest-rank quantile of a non-empty sorted int array. *)
let quantile_sorted s q =
  let n = Array.length s in
  let r = int_of_float (ceil (q *. float_of_int n)) in
  s.(max 0 (min (n - 1) (r - 1)))

(* The tail sample: the highest rank with at least [beyond] samples
   strictly above it. Returns (value, percentile). *)
let tail_sorted ?(beyond = 10) s =
  let n = Array.length s in
  let i = max 0 (n - beyond - 1) in
  (s.(i), 100.0 *. float_of_int (i + 1) /. float_of_int n)
