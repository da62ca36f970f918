(** Network addresses for the simulated internet. *)

type ip = int
(** 32-bit IPv4-style address stored in an int. *)

type port = int

type t = { ip : ip; port : port }

val ip_of_string : string -> ip
(** Parses dotted-quad notation, e.g. ["10.0.0.1"]. *)

val ip_to_string : ip -> string
val v : string -> port -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
