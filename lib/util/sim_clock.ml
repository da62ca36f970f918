type t = { mutable now : int64 }

let create () = { now = 0L }
let now t = Int64.to_int t.now
let now_ns t = t.now

let advance t dt =
  if dt < 0 then invalid_arg "Sim_clock.advance: negative";
  let n = now t + dt in
  (* [n] wraps negative exactly when the sum passes [max_int] *)
  t.now <- Int64.of_int (if n < 0 then max_int else n)

let advance_us t us = advance t (int_of_float (us *. 1e3))
