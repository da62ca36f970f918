(** Persistent B+-tree with fixed-size [int] keys.

    The single-level store uses three of these, exactly as in §4 of the
    paper: object ID → disk location, free extents indexed by size, and
    free extents indexed by location. Fixed-size keys "significantly
    simplify the implementation" — composite keys (for the by-size
    index) are packed into the int.

    The tree is immutable: {!insert} and {!remove} return a new tree
    that shares all untouched nodes with the old one (path copying).
    A version of the whole map is therefore an O(1) value copy, which
    is what lets the crash sweep capture the disk media at every write
    ([Disk.snapshot]) instead of replaying the prefix.
    Node constructions are counted in the [btree.node_allocs] metrics
    counter, so structural-sharing claims are assertable: N captures
    and writes allocate O(N·height of the touched paths), never
    O(N·entries).

    Keys are unique; inserting an existing key replaces its value. *)

type 'a t

val create : ?order:int -> unit -> 'a t
(** The empty tree. [order] is the maximum number of children of an
    internal node (default 16; must be at least 4). *)

val insert : 'a t -> int -> 'a -> 'a t
(** Path-copying insert/replace; the argument tree is unchanged. *)

val remove : 'a t -> int -> 'a t option
(** [Some t'] with the key removed, [None] if the key was absent. The
    argument tree is unchanged. *)

val find : 'a t -> int -> 'a option
val mem : 'a t -> int -> bool
val cardinal : 'a t -> int
val is_empty : 'a t -> bool
val min_binding : 'a t -> (int * 'a) option
val max_binding : 'a t -> (int * 'a) option

val find_geq : 'a t -> int -> (int * 'a) option
(** Smallest binding with key [>=] the argument. *)

val find_gt : 'a t -> int -> (int * 'a) option
val find_leq : 'a t -> int -> (int * 'a) option
(** Largest binding with key [<=] the argument. *)

val find_lt : 'a t -> int -> (int * 'a) option
val iter : (int -> 'a -> unit) -> 'a t -> unit
val fold : ('acc -> int -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> (int * 'a) list

val height : 'a t -> int
(** Tree height (1 for a single leaf); useful for balance assertions. *)

val check_invariants : 'a t -> unit
(** Raises [Failure] if a structural invariant is violated: key
    ordering, node fill factors, uniform leaf depth, cardinality. *)

val encode : Histar_util.Codec.Enc.t -> int t -> unit
(** On-disk format is unchanged from the historical mutable tree:
    order, size, then the bindings in key order, each key and value as
    8 little-endian bytes. *)

val decode : Histar_util.Codec.Dec.t -> int t
