(** Asbestos-style labels and the HiStar label algebra (§2).

    A label is a function from categories to taint levels that differs
    from a default level in only finitely many categories. We keep
    labels normalized — entries equal to the default are dropped — so
    structural equality coincides with extensional equality.

    The key comparison is [leq] (the paper's ⊑):
    [leq l1 l2] iff for every category [c], [l1(c) <= l2(c)] in the
    order ⋆ < 0 < 1 < 2 < 3 < J. Ownership (⋆) is shifted high to J by
    [raise_j] (the paper's superscript-J operator) and back by
    [lower_star] (superscript-⋆).

    Labels are hash-consed: every constructor interns its result in a
    process-wide weak table, so structurally equal labels are the same
    heap object and [equal] is a pointer test. The operations are pure
    and keep no memo tables; decisions are cached per kernel by
    {!Histar_core.Label_cache}. An operation whose result is one of its
    inputs returns that input without allocating. The intern id is
    process-local and never serialized; [compare] remains structural. *)

type t

val make : Level.t -> t
(** [make d] is the label [{d}] that maps every category to [d].
    Raises [Invalid_argument] if [d] is [J]. *)

val of_list : (Category.t * Level.t) list -> Level.t -> t
(** [of_list entries default] builds a label; later entries for the
    same category override earlier ones. *)

val default : t -> Level.t
val get : t -> Category.t -> Level.t

val set : t -> Category.t -> Level.t -> t
(** Functional update; setting a category to the default level removes
    its entry. *)

val entries : t -> (Category.t * Level.t) list
(** Non-default entries in increasing category order. *)

val ranked : t -> (int * int) list * int
(** Numeric view for the {!Histar_model} reference algebra: non-default
    entries as [(category id, rank)] sorted by category id, plus the
    default rank, where rank orders ⋆ < 0 < 1 < 2 < 3 < J as 0..5
    (see {!Level.to_rank}). *)

val categories : t -> Category.Set.t
(** Categories with non-default entries. *)

val equal : t -> t -> bool
(** Physical equality. Because all constructors intern, this coincides
    with structural (and hence extensional) equality. *)

val compare : t -> t -> int
(** Structural order (default level, then entries); stable across runs
    and processes, unlike the intern ids. *)

val id : t -> int
(** The intern id: distinct live labels have distinct ids. Process-local
    (it depends on interning order, so it differs across runs and domain
    interleavings); use it for hashing, never for output. *)

val interned_count : unit -> int
(** Number of distinct labels interned so far in this process (weak
    table insertions; never decremented). Re-interning a structurally
    equal label does not advance it. *)

(** {1 Lattice operations} *)

val leq : t -> t -> bool
(** The paper's ⊑ relation: pointwise level comparison. *)

val lub : t -> t -> t
(** Least upper bound ⊔: pointwise maximum. *)

val glb : t -> t -> t
(** Greatest lower bound: pointwise minimum. *)

(** {1 Ownership operators} *)

val raise_j : t -> t
(** Superscript J: map ⋆ to J (ownership read high). *)

val lower_star : t -> t
(** Superscript ⋆: map J to ⋆ (ownership read low). *)

val owns : t -> Category.t -> bool
(** [owns l c] iff [l(c)] is ⋆ (or J). *)

val owned : t -> Category.Set.t
(** All owned categories. *)

val has_star : t -> bool
val has_j : t -> bool

(** {1 Access checks (§2.2)} *)

val can_observe : thread:t -> obj:t -> bool
(** "No read up": [L_O ⊑ L_T{^J}], checked pointwise without building
    [L_T{^J}]. *)

val can_modify : thread:t -> obj:t -> bool
(** "No write down" (which in HiStar implies observing):
    [L_T ⊑ L_O ⊑ L_T{^J}]. *)

val can_flow : src:t -> dst:t -> bool
(** Pure information-flow check with no ownership shifting: [src ⊑ dst].
    Used by the flow oracle in tests. *)

val taint_to_read : thread:t -> obj:t -> t
(** The minimal label a thread must raise itself to in order to observe
    the object: [(L_T{^J} ⊔ L_O){^⋆}]. *)

(** {1 Validity} *)

val is_storable : t -> bool
(** No category at [J] (legal to store in a thread or gate label). *)

val is_object_label : t -> bool
(** No ⋆ and no [J]: legal for segments, containers, address spaces,
    devices. *)

(** {1 Serialization and printing} *)

val encode : Histar_util.Codec.Enc.t -> t -> unit
val decode : Histar_util.Codec.Dec.t -> t

val pp : Format.formatter -> t -> unit
(** Prints in the paper's notation, e.g. [{c3 *, c7 3, 1}]. *)

val to_string : t -> string
