(** Category name generator: encrypts a counter to produce fresh,
    opaque, never-repeating 61-bit category identifiers (§2). *)

type t

val create : key:int64 -> t

val next : t -> int
(** A fresh 61-bit name, distinct from all previous ones; it fits an
    immediate int. *)

val allocated : t -> int
(** How many names have been handed out. *)

val counter : t -> int64
(** Persistent state: the raw counter. *)

val restore : key:int64 -> counter:int64 -> t
(** Rebuild a generator from a persisted counter. *)
