(** Coverage-guided differential syscall fuzzer.

    Executes the same syscall trace against the real kernel
    ({!Histar_core.Kernel} driven through {!Histar_core.Sys} by a
    spawned driver thread) and against the pure reference model
    ({!Histar_model.Model}), and compares per-syscall outcomes (error
    {e class}, not message), the trace's termination (ran to the end /
    driver destroyed / stuck inside a gate / crashed), and the final
    object state reachable from the trace's slot table.

    Traces are abstract: objects are named by {e slot} — index into
    the list of objects the trace has created, starting with slot 0 =
    root container and slot 1 = the driver thread, reduced modulo the
    table size at execution — and categories by creation index,
    likewise reduced. This keeps every generated or mutated trace
    executable on both sides, and keeps model object ids (small
    sequential ints) and kernel object ids (pseudorandom cipher
    outputs) out of the comparison.

    The fuzz loop is coverage-guided: each run's signature is the set
    of {!Histar_metrics.Metrics} registry deltas and kernel
    {!Histar_core.Profile} counts, log2-bucketed (label-cache hits
    count as label checks, so a signature counts decisions, not how
    the cache served them); traces producing a new signature join the
    corpus and are preferred for mutation
    (span deletion/duplication/swap, op splices). Any divergence is
    shrunk to a minimal trace by greedy chunk removal and reported
    with the [HISTAR_CHECK_SEED] line that replays it. *)

module Kernel = Histar_core.Kernel
module Model = Histar_model.Model

type lspec = { ls_def : int; ls_ents : (int * int) list }
(** A label literal in trace terms: default rank (1..4, i.e. levels
    0..3) plus (category index, rank 0..5) entries. Category indexes
    are reduced modulo the number of categories the trace has created
    (entries are dropped when there are none). *)

type op =
  | O_cat_create
  | O_self_get_label
  | O_self_get_clearance
  | O_self_set_label of lspec
  | O_self_set_clearance of lspec
  | O_get_label of int * int  (** (container slot, object slot) *)
  | O_get_kind of int * int
  | O_get_descrip of int * int
  | O_get_quota of int * int
  | O_set_fixed_quota of int * int
  | O_set_immutable of int * int
  | O_get_metadata of int * int
  | O_set_metadata of int * int * string
  | O_unref of int * int
  | O_quota_move of int * int * int64  (** (container slot, target slot, nbytes) *)
  | O_container_create of int * lspec * int64 * Model.kind list
  | O_container_list of int * int
  | O_container_get_parent of int * int
  | O_container_link of int * (int * int)  (** (dest slot, target centry) *)
  | O_segment_create of int * lspec * int64 * int
  | O_segment_read of (int * int) * int * int
  | O_segment_write of (int * int) * int * string
  | O_segment_resize of (int * int) * int
  | O_segment_get_size of int * int
  | O_segment_copy of (int * int) * int * lspec * int64
  | O_segment_cas of (int * int) * int * int64 * int64
  | O_as_create of int * lspec * int64
  | O_as_get of int * int
  | O_as_map of (int * int) * int64 * (int * int) * int * int
  | O_as_unmap of (int * int) * int64
  | O_thread_create of int * lspec * lspec * int64
  | O_gate_create of int * lspec * lspec * int64 * bool
      (** gate whose service immediately gate-returns; the [bool] is
          "keep": return owning every category the entry owns (the §6.2
          ownership-granting gate) vs. dropping all of them *)
  | O_gate_create_oneshot of int * lspec * lspec * int64 * bool
      (** like {!O_gate_create} but with [Sys.gate_create ~one_shot:true]
          / model [gc_once = true]: the gate reaps itself from its naming
          container after the first successful invocation. Never emitted
          by {!gen_trace} (adding ops to the generator would shift the
          pinned mutation-catch indices); exercised by hand-written
          regression traces in [test/test_check.ml]. *)
  | O_gate_call of (int * int) * lspec option * lspec option * lspec * int
      (** (gate, requested label or floor, requested clearance or
          current, verify, return-container slot) *)
  | O_taint_to_read of int * int
      (** composite: read the object's label, compute taint_to_read
          with each side's own label algebra, raise self, then read *)
  | O_futex_wake of (int * int) * int * int
  | O_sync_object of int * int

type outcome =
  | Ok_unit
  | Ok_bool of bool
  | Ok_bytes of string
  | Ok_int of int64
  | Ok_quota of int64 * int64
  | Ok_kind of string
  | Ok_label of ((int * int) list * int)  (** canonical: (cat index, rank) *)
  | Ok_slot of int  (** object created: its new slot index *)
  | Ok_cat of int  (** category created: its index *)
  | Ok_entries of (int * string * string) list
      (** container listing as (slot or -1, kind, descrip) *)
  | Ok_maps of string
  | Err of string  (** error class: label / not_found / invalid / ... *)

type term =
  | T_done
  | T_gone  (** the trace destroyed the driver thread *)
  | T_stuck of string  (** stuck inside a gate; error class of the return path *)
  | T_crash of string  (** non-syscall exception escaped: always a divergence *)

val pp_op : op -> string
val pp_trace : op list -> string
val compare_traces : ?weaken:Kernel.weaken -> op list -> string option
(** Run both sides; [Some detail] describes the first divergence
    (per-op outcome, termination, or final-state), [None] if the
    kernel conforms on this trace. The kernel side is a fresh kernel
    running the whole trace in one scheduler run. *)

val fork_resume_divergence : op list -> string option
(** Run the trace on the real kernel, then {!Kernel.fork} its final
    state and {!Kernel.resume} the handle. [Some detail] names the
    first slot whose final-state view (the one {!compare_traces}
    checks against the model) differs across the round trip, [None]
    if every slot survives it. *)

val gen_trace : op list Gen.t
(** The full generator, biased towards label-boundary cases: owned
    categories, taint, gates, quota exhaustion. *)

val gen_quota_trace : op list Gen.t
(** Restricted generator for the container-quota property: every label
    is [{1}]; only create/resize/quota_move/link/fixed-quota/unref and
    observations, with adversarial quotas (0, tiny, huge, near-2^63). *)

type fuzz_stats = {
  fs_runs : int;  (** traces executed *)
  fs_corpus : int;  (** distinct coverage signatures seen *)
  fs_divergence : (op list * string) option;
      (** shrunk divergent trace and its detail, if any was found *)
  fs_seed : int64;
}

val run_fuzz :
  ?weaken:Kernel.weaken ->
  ?runs:int ->
  ?max_size:int ->
  ?seed:int64 ->
  unit ->
  fuzz_stats
(** The coverage-guided loop. Defaults: [runs] 400 (×8 when
    [HISTAR_CHECK_FULL=1]), [max_size] 30, [seed] {!Check.seed}[()].
    Runs sequentially on the calling domain and stops at the first
    divergence (after shrinking it). *)

val run_fuzz_many :
  ?domains:int ->
  ?weaken:Kernel.weaken ->
  ?runs:int ->
  ?max_size:int ->
  ?seed:int64 ->
  passes:int ->
  unit ->
  fuzz_stats list
(** [passes] independent fuzz passes, each seeded with
    [Par.split_seed seed p], one pool cell per pass (the
    embarrassingly parallel outer loop used by the nightly multi-pass
    sweep). Pass [p]'s stats equal a standalone
    [run_fuzz ~seed:(split_seed seed p)] exactly, at every domain
    count. *)

val report : fuzz_stats -> string
(** Human-readable report; includes the [HISTAR_CHECK_SEED=0x...] replay
    line when a divergence was found. *)
