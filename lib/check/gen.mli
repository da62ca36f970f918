(** Seed-reproducible sized generators with integrated shrinking.

    A generator is a pure function from a 64-bit seed and a size bound
    to a lazy rose tree: the root is the generated value, the children
    are progressively smaller counterexample candidates. Because
    generation is pure in the seed (driven by {!Histar_util.Rng}'s
    splitmix64), any failure is replayable from the [(seed, iteration)]
    pair alone — no generator state to capture.

    Shrinking is integrated (Hedgehog-style): [map] and [bind] compose
    shrink trees automatically, so workload generators built from these
    combinators shrink for free. *)

type 'a tree = Tree of 'a * 'a tree Seq.t

val tree_root : 'a tree -> 'a

type 'a t

val run : 'a t -> seed:int64 -> size:int -> 'a tree
val generate : 'a t -> seed:int64 -> size:int -> 'a
(** The root of {!run}'s tree (no shrinking information). *)

(** {1 Monadic core} *)

val return : 'a -> 'a t
val map : ('a -> 'b) -> 'a t -> 'b t
val map2 : ('a -> 'b -> 'c) -> 'a t -> 'b t -> 'c t
val bind : 'a t -> ('a -> 'b t) -> 'b t
val ( let* ) : 'a t -> ('a -> 'b t) -> 'b t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val sized : (int -> 'a t) -> 'a t
(** Build a generator from the current size bound. *)

val resize : int -> 'a t -> 'a t

(** {1 Base generators} *)

val int_range : int -> int -> int t
(** [int_range lo hi] is uniform on [\[lo, hi\]]; shrinks towards [lo]. *)

val nat : int t
(** [0 .. size], shrinking towards [0]. *)

val int64 : int64 t
(** Uniform over the full 64-bit range; shrinks towards [0L]. *)

val bool : bool t
(** Shrinks towards [false]. *)

val char : char t
val byte : char t

val choose : 'a list -> 'a t
(** Uniform pick from a non-empty constant list; shrinks towards the
    head of the list. *)

val oneof : 'a t list -> 'a t
(** Pick a generator; shrinks towards generators earlier in the list. *)

val frequency : (int * 'a t) list -> 'a t

(** {1 Collections} *)

val list : 'a t -> 'a list t
(** Length in [0 .. size]; shrinks by dropping chunks of elements and by
    shrinking individual elements. *)

val list_len : int -> 'a t -> 'a list t
(** Fixed length; shrinks elements only. *)

val string : string t
(** Length in [0 .. size]; arbitrary bytes. *)

val string_of : char t -> string t
