type t = { mutable state : int64 }

let create seed = { state = seed }

(* splitmix64: good statistical quality, trivially seedable. *)
let next64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod bound

let bool t = Int64.logand (next64 t) 1L = 1L
let byte t = Char.chr (int t 256)
let bytes t n = String.init n (fun _ -> byte t)
let split t = create (next64 t)
