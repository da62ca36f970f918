(** Memoized label comparisons.

    §4: "The kernel performs several key optimizations. It caches the
    result of comparisons between immutable labels." Object labels are
    immutable after creation and thread labels change rarely, so the
    same (thread label, object label) pairs recur on every fault-path
    access; this bounded cache short-circuits them. It is the only
    decision memo in the system: {!Histar_label.Label} is a pure
    algebra, and each kernel owns its cache, so hit and miss counts
    are deterministic whatever else runs in the process.

    Keys are the hash-consed label pair itself, compared by pointer and
    hashed by {!Histar_label.Label.id}. A cached pair keeps its labels
    alive, so hits never depend on garbage-collection timing. A lookup
    probes through one mutable key record, so a hit allocates nothing;
    only a miss stores a fresh key. The cache
    is cleared wholesale when it reaches its bound, which keeps the
    worst case linear and the common case O(1).

    Counter semantics: one counter per fact. A cache hit counts as
    [label.elided] (the §2 algebra did not run); a miss counts as
    [label.cache_misses] and, with the kernel's uncached gate checks,
    as [label.checks]; [label.denied] counts every denial. The cache
    keeps no statistics of its own: read hits and misses as deltas of
    these counters inside an enabled metrics window. *)

type t

val create : ?bound:int -> unit -> t
(** Default bound: 8192 entries per relation. *)

val observe : t -> thread:Histar_label.Label.t -> obj:Histar_label.Label.t -> bool
(** Memoized {!Histar_label.Label.can_observe}. *)

val modify : t -> thread:Histar_label.Label.t -> obj:Histar_label.Label.t -> bool
(** Memoized {!Histar_label.Label.can_modify}. *)

val copy : t -> t
(** An independent cache with identical contents, so a forked kernel's
    future hit/miss behaviour matches the trunk's at the branch point
    exactly. *)

val count_uncached_check : allowed:bool -> unit
(** Report a label comparison performed outside the cache (gate
    invocation checks use {!Histar_label.Label.leq} directly) into the
    global [label.checks] / [label.denied] metrics, so those counters
    cover every kernel label decision. *)
