(** User-level mutex over an 8-byte word in a shared segment, built
    from the kernel's compare-and-swap and futex primitives — the
    paper's "memory-based futex synchronization primitive, on which the
    user-level library implements mutexes" (§4). *)

type t

val at : Histar_core.Types.centry -> off:int -> t
(** A mutex living at byte offset [off] of the given segment. The word
    must be initialized to zero (unlocked). *)

val lock : t -> unit
val unlock : t -> unit
val with_lock : t -> (unit -> 'a) -> 'a
