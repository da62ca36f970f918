(** Twin-trace noninterference harness over the lib/lio floating-label
    layer.

    A generated program and its {e twin} — identical except for the
    literals written at the secret category — both start from one
    shared prologue captured with {!Histar_core.Kernel.fork} (so the
    oid, category and taint-id generator streams agree bit-for-bit at
    the divergence point), run to completion on independent resumed
    branches, and must then be indistinguishable to a low observer:
    the low-visible trace events and the low-readable final state,
    projected canonically, must be equal.

    The projection never mentions raw oids, intern ids, metrics,
    elision counters, quotas or clock values: objects are named by
    descrip plus order of first appearance, and categories by their
    index in the world's category table. A twin that allocates a
    different number of high objects therefore shifts every later oid
    without perturbing the projection — covered by the allocation-order regression in
    [test/test_check.ml].

    Divergences surface through {!Check} properties, so they shrink
    through the generator's tree and replay via [HISTAR_CHECK_SEED].
    The two planted library-level leaks ({!Histar_lio.Lio.weaken})
    must each be caught as a projection divergence: neither is a
    kernel bug — the leaking thread owns the category it leaks — so
    only this harness can see them. *)

(** {1 Programs} *)

type stmt =
  | S_write_low of int * string
  | S_write_high of int * string
      (** The only twin-varied statement: the twin appends one byte to
          the literal, flipping the parity {!S_throw_if_odd} branches
          on. *)
  | S_write_low_reg of int
  | S_write_high_reg of int
  | S_read_low of int
  | S_read_high of int
  | S_unlabel_last
      (** Unlabel the result of the most recent to_labeled block into
          the register (tainting the thread with its label). *)
  | S_throw_if_odd of int
      (** Read high ref [i]; throw iff the value has odd length —
          secret-dependent control flow. *)
  | S_alloc_high
      (** Allocate a fresh high ref: perturbs the oid stream without
          touching anything low-visible. *)
  | S_to_labeled_low of stmt list
  | S_to_labeled_high of stmt list
  | S_catch of stmt list * stmt list

val pp_prog : stmt list -> string
val gen_prog : stmt list Gen.t

(** {1 Twin runs} *)

val check_twins :
  ?weaken:Histar_lio.Lio.weaken -> stmt list -> string list * string list
(** Run the program and its twin from a fresh shared prologue; return
    both canonical low views. Always resets the weaken switch. *)

val prop : ?weaken:Histar_lio.Lio.weaken -> stmt list -> unit
(** Raises [Failure] with a full diff report if the low views differ —
    the property fed to {!Check.run}. *)

val suite_digest :
  ?domains:int -> ?count:int -> ?seed:int64 -> unit -> int * string
(** Run [count] (default 500) twin pairs from the deterministic
    program schedule that {!catch_index} also scans, so a "catch
    index" is meaningful on its own; raise on
    the first (lowest-index) divergence, otherwise return the pair
    count and a hex digest of every low view — two runs must return
    the identical digest (the harness is deterministic end to end).
    Pairs are independent and fan out on the lib/par pool
    ([?domains] defaults to [Par.domains ()]); the digest and any
    failure report are byte-identical at every domain count. *)

val catch_index :
  ?domains:int ->
  weaken:Histar_lio.Lio.weaken ->
  ?seed:int64 ->
  ?budget:int ->
  unit ->
  (int * stmt list) option
(** Smallest schedule index whose twin pair exposes the planted leak,
    with the offending program. Scans the schedule in pool-width
    chunks; the returned index is domain-count independent. *)

(** {1 Differential test: Lio vs the Mlio reference}

    Random label-level LIO programs (taints, label checks, to_labeled
    and catch scopes over four categories, two of them owned) run both
    through the real library on a live kernel and through the pure
    {!Histar_model.Mlio} state machine; the recorded trajectories —
    one allow/deny verdict plus the canonical (label, clearance) pair
    per operation — must be identical. *)

type lspec = (int * int) list
(** (category index 0..3, level 0..3) pairs over default 1. *)

type lop =
  | L_taint of lspec
  | L_label of lspec
  | L_to_labeled of lspec * lop list
  | L_catch of lop list * bool

val pp_lops : lop list -> string
val gen_lops : lop list Gen.t

val prop_lio_model_diff : lop list -> unit
(** Raises [Failure] with both trajectories on divergence. *)
