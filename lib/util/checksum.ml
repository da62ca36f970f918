let offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

(* Byte-at-a-time FNV-1a with one load per eight bytes: each word comes
   in with [String.get_int64_le] and its bytes are folded lowest first,
   which is their order in the string, so the value is the byte loop's.
   The eight steps are written out: without flambda a local helper
   would box the running hash at every byte. *)
let fnv64_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Checksum.fnv64_sub";
  let open Int64 in
  let h = ref offset_basis in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let w = String.get_int64_le s !i in
    h := mul (logxor !h (logand w 0xFFL)) prime;
    h := mul (logxor !h (logand (shift_right_logical w 8) 0xFFL)) prime;
    h := mul (logxor !h (logand (shift_right_logical w 16) 0xFFL)) prime;
    h := mul (logxor !h (logand (shift_right_logical w 24) 0xFFL)) prime;
    h := mul (logxor !h (logand (shift_right_logical w 32) 0xFFL)) prime;
    h := mul (logxor !h (logand (shift_right_logical w 40) 0xFFL)) prime;
    h := mul (logxor !h (logand (shift_right_logical w 48) 0xFFL)) prime;
    h := mul (logxor !h (shift_right_logical w 56)) prime;
    i := !i + 8
  done;
  while !i < stop do
    h := mul (logxor !h (of_int (Char.code (String.unsafe_get s !i)))) prime;
    incr i
  done;
  !h

let fnv64 s = fnv64_sub s ~pos:0 ~len:(String.length s)

(* Word-at-a-time FNV-1a: eight little-endian bytes per step, then the
   odd tail bytes one at a time. Each step is a bijection of the running
   value, so changing any single word changes the result. *)
let fold64 h s ~pos ~len =
  let h = ref h in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    h := Int64.mul (Int64.logxor !h (String.get_int64_le s !i)) prime;
    i := !i + 8
  done;
  while !i < stop do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[!i]))) prime;
    incr i
  done;
  !h

let mix64 h =
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xFF51AFD7ED558CCDL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xC4CEB9FE1A85EC53L in
  Int64.logxor h (Int64.shift_right_logical h 33)
