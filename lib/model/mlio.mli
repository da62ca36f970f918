(** Reference semantics of the lib/lio floating-label layer (LIO-style
    IFC, Stefan et al.), over the naive {!Mlabel} algebra.

    A pure state machine over (current label, clearance) pairs: taint
    joins with ⋆-absorption below the public level, the label/unlabel
    bounds, to_labeled's temporary clearance lowering, and the scope
    exit transition — the §3.5 return-gate laundering that restores
    owned-category taint to ⋆. The differential harness in
    [lib/check/noninterference.ml] runs random LIO programs against
    both this reference and the real [Histar_lio.Lio] on a live kernel
    and requires identical allow/deny decisions and identical label
    trajectories, the same way the PR-4 conformance fuzzer pins the
    kernel to {!Model}. *)

type st

val make : cur:Mlabel.t -> clear:Mlabel.t -> st
val cur : st -> Mlabel.t
val clear : st -> Mlabel.t
val equal : st -> st -> bool
val to_string : st -> string

val taint : st -> Mlabel.t -> (st, unit) result
(** Join [l] into the current label: pointwise ⊔ except ⋆ (privilege)
    absorbs joins at or below the public level 1; only an explicit
    higher taint clobbers it. [Error] when the joined label would
    exceed the clearance. *)

val label_ok : st -> Mlabel.t -> bool
(** [cur ⊑ l ⊑ clear]. *)

val unlabel : st -> Mlabel.t -> (st, unit) result

val enter_to_labeled : st -> Mlabel.t -> (st, unit) result
(** Checks [label_ok], then lowers the clearance to the block label. *)

val enter_catch : st -> st

val exit_scope : pre:st -> keep_acquired:bool -> st -> st
(** The return-gate transition: owned-category taint laundered to ⋆,
    non-owned taint kept, clearance restored; ⋆s acquired inside the
    scope are dropped unless [keep_acquired]. *)
