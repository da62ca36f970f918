(** 64-bit FNV-1a checksum, used to validate write-ahead-log records and
    checkpoint images after a crash. *)

val fnv64 : string -> int64
val fnv64_sub : string -> pos:int -> len:int -> int64
(** [fnv64] of the [len] bytes of the string from [pos], reading a word
    per eight bytes. [Invalid_argument] if the range is not inside the
    string. *)

val fold64 : int64 -> string -> pos:int -> len:int -> int64
(** [fold64 h s ~pos ~len] folds [len] bytes of [s] from [pos] into the
    running hash [h], eight bytes per step (a word-wide FNV-1a). The
    result can seed the next fold, to hash several ranges as one stream
    while skipping the bytes between them. *)

val mix64 : int64 -> int64
(** MurmurHash3's 64-bit finalizer: spreads every input bit over the
    whole word. *)
