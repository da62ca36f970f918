(** Categories of taint: opaque 61-bit identifiers (§2), held as
    immediate ints. [(c :> int)] is the numeric name. *)

type t = private int

val of_int64 : int64 -> t
(** The constructor for decoded bytes: range-checks the full 64-bit
    value, so no out-of-range field can alias an in-range name. Raises
    [Invalid_argument] if the value does not fit in 61 bits. *)

val of_int : int -> t
(** Raises [Invalid_argument] if the value does not fit in 61 bits. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
