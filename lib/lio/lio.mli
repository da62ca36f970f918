(** LIO-style floating-label information flow control over HiStar gates.

    A thin, untrusted user-level library in the style of Stefan et
    al.'s LIO (Haskell, ICFP 2011 / "Flexible dynamic information flow
    control in the presence of exceptions"), built entirely on the
    kernel primitives of §3: the {e current label} of an LIO
    computation is simply the thread's HiStar label, raised by
    [unlabel]/[taint] with a plain ⊔ (deliberately clobbering ⋆
    ownership, so the kernel's own no-write-down checks back up every
    library check), and restored at scope boundaries by the gate
    mechanism of §3.5: each {!to_labeled}/{!catch} block runs inside a
    one-shot gate excursion whose return gate — minted at the
    pre-block label {e before} privileges are dropped — launders taint
    in caller-owned categories back to ⋆ on the way out.

    Because the library is untrusted, its guarantees are exactly the
    LIO discipline, no more: a computation that owns a category (the
    usual case — LIO contexts mint their own secrecy categories) is
    {e kernel-permitted} to leak it, and only the floating-label
    bookkeeping here stands in the way. The twin-trace noninterference
    harness in [lib/check/noninterference.ml] tests that discipline
    end to end, and the {!weaken} switches below plant the two
    library-level leaks it must catch. *)

module Label = Histar_label.Label
module Category = Histar_label.Category
open Histar_core.Types

exception Lio_error of string
(** A library-level IFC violation (the kernel was never asked). *)

(** {1 Context} *)

type ctx
(** Scratch placement for scope gates and refs: one container per
    taint level, pre-created by {!init} because a thread that is
    already tainted can only create objects in a container at its
    taint (§6.1's tainted-workspace pattern). *)

val init : ?levels:Label.t list -> container:oid -> unit -> ctx
(** Create the scratch containers under [container]: one at [{1}]
    (always, first) plus one per label in [levels] (each must satisfy
    {!Label.is_object_label}). Call while still untainted. *)

val scratch_for : ctx -> Label.t -> oid
(** The first scratch container the given thread label can modify;
    raises {!Lio_error} if none fits (extend [levels] at {!init}). *)

(** {1 The floating label} *)

val current_label : unit -> Label.t

val taint : Label.t -> unit
(** Raise the current label to [current ⊔ l] — a plain pointwise ⊔,
    so taint in a category clobbers ⋆ ownership until the enclosing
    scope returns. Raises [Kernel_error] if the result would exceed
    the thread's clearance. *)

(** {1 Labeled values} *)

type 'a labeled
(** An immutable value (or a captured exception) protected by a label;
    inspecting it requires raising the current label to at least that
    label. *)

val label : Label.t -> 'a -> 'a labeled
(** [label l v] requires [current ⊑ l ⊑ clearance] (writing below the
    current label would be a leak); raises {!Lio_error} otherwise. *)

val label_of : 'a labeled -> Label.t
(** The label itself is public (it was chosen at or below the
    creator's clearance while at or above its current label). *)

val unlabel : 'a labeled -> 'a
(** Taints the current label with the value's label, then returns the
    value — or re-raises the captured exception if the labeled value
    holds one (a {!to_labeled} block that threw). *)

(** {1 Scoped excursions} *)

val with_scope : ctx -> (unit -> 'a) -> ('a, exn) Stdlib.result * Label.t
(** The primitive beneath {!to_labeled} and {!catch}: run the thunk
    inside a one-shot gate excursion and return its outcome plus the
    label at which the thunk finished (or threw). On return the
    current label is the pre-scope label joined with any taint the
    thunk picked up in categories the caller does {e not} own —
    owned-category taint is laundered by the gate return, and ⋆s the
    thunk acquired (e.g. through an ownership-granting gate like
    §6.2's check gate) are kept. The caller is responsible for
    re-applying that taint if the outcome is to be used unlabeled
    ({!catch} does; {!to_labeled} instead labels it). *)

val to_labeled : ctx -> Label.t -> (unit -> 'a) -> 'a labeled
(** [to_labeled ctx l f] requires [current ⊑ l ⊑ clearance], then runs
    [f] in a scope whose {e clearance is temporarily lowered to l}, so
    the kernel itself refuses any attempt to taint beyond [l] inside
    the block (the attempt raises [Kernel_error] {e inside} the block,
    where it is captured like any other exception). The outcome —
    value or exception — comes back labeled [l], and the current label
    is restored to its pre-block value. Unlike {!with_scope}/{!catch},
    the block is fully confined: ⋆s it acquired are dropped on exit. *)

val catch : ctx -> (unit -> 'a) -> (exn -> 'a) -> 'a
(** [catch ctx f h]: run [f] in a scope (full clearance); whether it
    returns or throws, re-taint the current label to the label at
    which [f] finished — the Stefan et al. catch discipline: the
    handler (and the fall-through path) runs at the throw-point label,
    so an exception cannot smuggle secret-dependent control flow back
    to a less tainted context. The scope also checkpoints privileges:
    even if [f] dropped ⋆s, the caller gets its own back. *)

(** {1 Labeled references}

    Segment-backed mutable cells, so every access is additionally
    checked by the kernel: the segment carries the ref's label and
    lives in the scratch container for that label. *)

type lref

val new_ref : ctx -> ?name:string -> Label.t -> string -> lref
(** Requires [current ⊑ l ⊑ clearance], like {!label}. [name] becomes
    the segment's descrip — the twin-trace harness keys its canonical
    low projection on descrips, never on raw oids. *)

val ref_entry : lref -> centry

val read_ref : lref -> string
(** Taints the current label with the ref's label, then reads. *)

val write_ref : lref -> string -> unit
(** No write down: requires [current ⊑ l] ({!Lio_error} otherwise —
    and the kernel's segment-write check stands behind it). *)

(** {1 Planted leaks (tests only)} *)

type weaken =
  | Weaken_lio_catch
      (** [catch] skips the re-taint on the exception path: the handler
          runs at the laundered pre-scope label, so secret-dependent
          throws become publicly visible control flow. *)
  | Weaken_toLabeled_result
      (** [to_labeled] runs the block at full clearance and skips the
          final ⊑ l check: a block that reads above [l] yields an
          under-labeled result. *)

val set_weaken : weaken option -> unit
(** Library-level analogue of the kernel's weaken switches: each
    disables exactly one floating-label check. The twin-trace
    noninterference harness must catch both as low-projection
    divergences; neither is detectable by the kernel (the leaking
    thread owns the category it leaks). *)

val weaken_to_string : weaken -> string
