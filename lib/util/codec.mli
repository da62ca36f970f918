(** Binary serialization used by the single-level store and the kernel.

    Encoders append to an internal buffer; decoders read from a string and
    raise {!Truncated} on malformed or short input. All integers are
    little-endian and fixed-width, which keeps on-disk object sizes
    predictable for quota accounting. *)

exception Truncated
(** Raised by decoders on short reads or invalid tags. *)

module Enc : sig
  type t

  val create : unit -> t
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val i64 : t -> int64 -> unit
  val int : t -> int -> unit
  (** The same 8 bytes as [i64] of the value. *)

  val bool : t -> bool -> unit
  val str : t -> string -> unit
  (** Length-prefixed string. *)

  val raw : t -> string -> unit
  (** Appends the bytes with no length prefix. *)

  val raw_sub : t -> string -> int -> int -> unit
  (** [raw_sub e s pos len] appends [s[pos, pos+len)] with no length
      prefix. *)

  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
  val array : t -> (t -> 'a -> unit) -> 'a array -> unit
  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  val pair : t -> (t -> 'a -> unit) -> (t -> 'b -> unit) -> 'a * 'b -> unit
  val length : t -> int
  val to_string : t -> string
end

module Dec : sig
  type t

  val of_string : string -> t

  val of_substring : string -> pos:int -> len:int -> t
  (** Decodes [len] bytes of the string from [pos] in place: reads past
      [pos + len] raise {!Truncated} as if the string ended there.
      [Invalid_argument] if the range is not inside the string. *)

  val u8 : t -> int
  val u16 : t -> int
  val u32 : t -> int
  val i64 : t -> int64
  val int : t -> int
  (** Reads what [Enc.int] wrote. Raises {!Truncated} on a 64-bit value
      outside OCaml's 63-bit int range. *)

  val bool : t -> bool
  val str : t -> string
  val raw : t -> int -> string
  val list : t -> (t -> 'a) -> 'a list
  val array : t -> (t -> 'a) -> 'a array
  val option : t -> (t -> 'a) -> 'a option
  val pair : t -> (t -> 'a) -> (t -> 'b) -> 'a * 'b
  val pos : t -> int
  (** Offset into the underlying string. *)

  val remaining : t -> int
  val at_end : t -> bool
end
