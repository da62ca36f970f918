(** Deterministic pseudo-random number generator (splitmix64).

    The kernel and simulators never use [Stdlib.Random] directly so that
    whole-system runs are reproducible from a seed. *)

type t

val create : int64 -> t
(** [create seed] makes an independent generator. *)

val next64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val bool : t -> bool
val byte : t -> char

val bytes : t -> int -> string
(** [bytes t n] is an [n]-byte pseudo-random string. *)

val split : t -> t
(** Derive an independent generator. *)
