(** Executable reference model of the HiStar kernel (§3).

    A small, pure transcription of the kernel's externally-specified
    behaviour: the six object types with their labels, quotas
    (double-charged in every parent, §3.3), container link structure,
    and the exact label checks each system call performs — including
    the full gate-call round trip of §3.5/§5.5 (service-gate invocation
    checks, return-gate creation at the caller's label, ⋆-drop on
    return, one-shot return-gate reaping).

    [step] is a pure function from a state and one request to a new
    state, the response, and a scheduling status; every error is the
    label-check (or quota/validity) error class the paper mandates, in
    the same check order as [lib/core/kernel.ml]. The conformance
    fuzzer in [lib/check] executes syscall traces against both this
    model and the real kernel and reports any divergence.

    Out of scope (documented in EXPERIMENTS.md): scheduling and
    blocking (futex wait queues, alerts, timers), devices, persistence,
    thread-local segments, and address-space activation — the model
    keeps AS mappings as inert data. Model object ids and category ids
    are small sequential integers; the comparison layer translates. *)

type oid = int
type centry = { container : oid; object_id : oid }

type kind = Segment | Thread | Address_space | Gate | Container | Device

type err =
  | E_label
  | E_not_found
  | E_invalid
  | E_quota
  | E_immutable
  | E_avoid
      (** Error classes, mirroring [Histar_core.Types.error] without
          the message payloads. *)

type mapping = {
  va : int64;
  seg : centry;
  map_off : int;
  npages : int;
  mread : bool;
  mwrite : bool;
  mexec : bool;
}

type spec = {
  sc_container : oid;
  sc_label : Mlabel.t;
  sc_quota : int64;
  sc_descrip : string;
}

type req =
  | Cat_create
  | Self_get_label
  | Self_get_clearance
  | Self_set_label of Mlabel.t
  | Self_set_clearance of Mlabel.t
  | Obj_get_label of centry
  | Obj_get_kind of centry
  | Obj_get_descrip of centry
  | Obj_get_quota of centry
  | Obj_set_fixed_quota of centry
  | Obj_set_immutable of centry
  | Obj_get_metadata of centry
  | Obj_set_metadata of centry * string
  | Unref of centry
  | Quota_move of { qm_container : oid; qm_target : oid; qm_nbytes : int64 }
  | Container_create of spec * kind list  (** extra avoided kinds *)
  | Container_list of centry
  | Container_get_parent of centry
  | Container_link of { cl_container : oid; cl_target : centry }
  | Segment_create of spec * int
  | Segment_read of centry * int * int
  | Segment_write of centry * int * string
  | Segment_resize of centry * int
  | Segment_get_size of centry
  | Segment_copy of centry * spec
  | Segment_cas of { cas_seg : centry; cas_off : int; cas_exp : int64; cas_des : int64 }
  | As_create of spec
  | As_get of centry
  | As_map of centry * mapping
  | As_unmap of centry * int64
  | Thread_create of spec * Mlabel.t  (** clearance of the new thread *)
  | Thread_get_label of centry
  | Gate_create of {
      gc_spec : spec;
      gc_clearance : Mlabel.t;
      gc_keep : bool;
      gc_once : bool;
    }
      (** [gc_keep]: the modeled service entry immediately returns via
          [gate_return], keeping all owned categories when [gc_keep]
          (granting the gate's ⋆s through the return, §6.2) and keeping
          none otherwise. [gc_once]: the gate is one-shot — reaped from
          its naming container after the first successful invocation,
          mirroring the kernel's [Sys.gate_create ~one_shot:true]. *)
  | Gate_call of {
      g_gate : centry;
      g_label : Mlabel.t option;  (** [None]: request the gate floor *)
      g_clear : Mlabel.t option;  (** [None]: current clearance *)
      g_verify : Mlabel.t;
      g_retcon : oid;  (** container for the return gate *)
    }
  | Futex_wake of centry * int * int
  | Sync_object of centry

type resp =
  | R_unit
  | R_bool of bool
  | R_cat of int
  | R_label of Mlabel.t
  | R_oid of oid
  | R_bytes of string
  | R_int of int64
  | R_quota of int64 * int64
  | R_kind of kind
  | R_entries of (oid * kind * string) list
  | R_mappings of mapping list
  | R_err of err * string

type status =
  | S_continue
  | S_thread_gone
      (** The request destroyed the calling thread; its response is
          never delivered and no further request from it runs. *)
  | S_stuck of err * string
      (** A gate call transferred control but the modeled return path
          failed its checks; the thread halts inside the service with
          the state mutated up to that point (return gate leaked). *)

type view = {
  v_kind : kind;
  v_label : Mlabel.t;
  v_descrip : string;
  v_quota : int64;
  v_usage : int64;
  v_fixed : bool;
  v_immut : bool;
  v_meta : string;
  v_refs : int;
  v_seg : string option;
  v_children : (oid * kind * string) list option;  (** sorted by oid *)
  v_parent : oid option;
  v_clear : Mlabel.t option;  (** threads *)
  v_maps : mapping list option;
}

type state

val infinite_quota : int64
val init : unit -> state
(** Mirrors [Kernel.create] + one [spawn]: a root container (label {1},
    quota ∞) holding one boot thread (label {1}, clearance {2}, quota
    65536). *)

val root : state -> oid
val boot_thread : state -> oid

val spawn :
  state ->
  container:oid ->
  label:Mlabel.t ->
  clearance:Mlabel.t ->
  descrip:string ->
  state * oid
(** Host-level bootstrap outside label checks, mirroring
    [Kernel.spawn]. Raises [Invalid_argument] on a bad container. *)

val step : state -> thread:oid -> req -> state * resp * status
(** Unknown or non-thread [thread] raises [Invalid_argument]. *)

val live : state -> oid list
(** All live object ids, sorted. *)

val view : state -> oid -> view option
val thread_label_of : state -> oid -> Mlabel.t option
val err_to_string : err -> string
val kind_to_string : kind -> string

val check_gate_invoke :
  lt:Mlabel.t ->
  ct:Mlabel.t ->
  lg:Mlabel.t ->
  gclear:Mlabel.t ->
  rl:Mlabel.t ->
  rc:Mlabel.t ->
  lv:Mlabel.t ->
  (unit, err * string) result
(** The §3.5 gate-invocation rule in isolation: thread (label [lt],
    clearance [ct]) invoking a gate (label [lg], clearance [gclear])
    requesting [rl]/[rc] against verify label [lv]. Exposed so
    lib/dist's remote admission check ({!Histar_dist.Proto.admit})
    can be conformance-tested clause for clause against the model. *)
