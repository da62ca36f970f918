(** Reference label algebra (§2), independent of [lib/label].

    This is a deliberately naive transcription of the paper's six-level
    label lattice over sorted association lists: levels are plain
    integer ranks ordered ⋆ < 0 < 1 < 2 < 3 < J as [0..5], a label is a
    default rank plus finitely many per-category exceptions, and every
    operator is pointwise. It shares no code with [Histar_label.Label]
    (which is Map-based and cached in the kernel), so the conformance
    fuzzer's differential comparison covers the production label
    implementation as well as the kernel's use of it. *)

type t

val star : int
val l0 : int
val l1 : int
val l2 : int
val l3 : int
val j : int
(** The six ranks, [0..5] in lattice order. *)

val make : int -> t
(** [make d] maps every category to rank [d]. Raises [Invalid_argument]
    if [d] is [j] or out of range (mirrors {!Histar_label.Label.make}). *)

val of_entries : (int * int) list -> int -> t
(** [of_entries entries default]; later entries for the same category
    override earlier ones (mirrors [Label.of_list]). *)

val default : t -> int
val get : t -> int -> int
val set : t -> int -> int -> t
val entries : t -> (int * int) list
(** Non-default entries sorted by category. *)

val equal : t -> t -> bool
val compare : t -> t -> int

(** {1 Lattice operations (§2.1)} *)

val leq : t -> t -> bool
val lub : t -> t -> t
val glb : t -> t -> t

(** {1 Ownership operators} *)

val raise_j : t -> t
(** Superscript J: ⋆ ↦ J. *)

val lower_star : t -> t
(** Superscript ⋆: J ↦ ⋆. *)

val owns : t -> int -> bool
(** Rank ⋆ or J at the category. *)

val owned : t -> int list
(** Categories with an explicit ⋆ or J entry, sorted. *)

val has_star : t -> bool
val has_j : t -> bool
val is_storable : t -> bool
(** No category at J. *)

val is_object_label : t -> bool
(** No ⋆ and no J. *)

(** {1 Access checks (§2.2)} *)

val can_observe : thread:t -> obj:t -> bool
(** L_O ⊑ L_T{^J}. *)

val can_modify : thread:t -> obj:t -> bool
(** L_T ⊑ L_O ∧ L_O ⊑ L_T{^J}. *)

val can_flow : src:t -> dst:t -> bool

val taint_to_read : thread:t -> obj:t -> t
(** (L_T{^J} ⊔ L_O){^⋆}: the least label the thread must raise itself
    to in order to observe the object. *)

val to_string : t -> string
