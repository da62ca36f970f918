type t = int

let max61 = (1 lsl 61) - 1

let of_int64 v =
  if v < 0L || v > 0x1FFF_FFFF_FFFF_FFFFL then
    invalid_arg (Printf.sprintf "Category.of_int64: %Ld out of 61-bit range" v);
  Int64.to_int v

let of_int v =
  if v < 0 || v > max61 then
    invalid_arg (Printf.sprintf "Category.of_int: %d out of 61-bit range" v);
  v

let compare = Int.compare
let equal = Int.equal
let to_string v = Printf.sprintf "c%d" v
let pp fmt v = Format.pp_print_string fmt (to_string v)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
