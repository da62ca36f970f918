(** The HiStar kernel (§3, §4).

    Six object types — segments, threads, address spaces, gates,
    containers and devices — each carrying a label, a quota, 64 bytes
    of metadata and an immutable flag. Every system call performs the
    paper's label checks; the end-to-end property is that the contents
    of object A can only affect object B if, for every category c in
    which A is more tainted than B, a thread owning c takes part.

    Threads are cooperative coroutines built on OCaml 5 effect
    handlers: user code calls the wrappers in {!Sys} (each performs the
    {!Syscall.Syscall} effect), and the kernel's round-robin scheduler
    interprets them. Gate entry/return is modelled exactly as a control
    transfer: entering a gate abandons the thread's current
    continuation; a return gate created by [gate_call] stores the
    caller's continuation and resumes it when entered.

    The kernel optionally sits on a {!Histar_store.Store.t}: individual
    objects can be fsynced through the write-ahead log, and
    [checkpoint] snapshots the whole system (the single-level store).
    Thread continuations and gate entry closures are not serializable;
    after {!recover} threads come back halted, which this simulation
    documents as its one departure from the paper's full persistence. *)

module Label = Histar_label.Label
module Category = Histar_label.Category
open Types

type t

type weaken =
  | Weaken_segment_read_taint
  | Weaken_gate_star_grant
  | Weaken_unref_check
      (** Test-only switches that each weaken exactly one label-check
          mechanism (segment_read's observe check, the gate-invocation
          ⋆-floor check, unref's container modify check). The
          conformance fuzzer's mutation-killing self-test asserts it
          detects every one as a model divergence within a bounded
          budget. *)

(** {1 Construction and scheduling} *)

val create :
  ?seed:int64 ->
  ?clock:Histar_util.Sim_clock.t ->
  ?store:Histar_store.Store.t ->
  ?syscall_cost_ns:int ->
  ?weaken:weaken ->
  unit ->
  t
(** The syscall dispatch loop always reports into the
    {!Histar_metrics.Metrics} registry; with the registry disabled each
    report costs one flag load and branch. [weaken] (default none)
    deliberately disables one label check — tests only. *)

val clock : t -> Histar_util.Sim_clock.t
val root : t -> oid
(** The root container: quota ∞, label [{1}], never deallocated. *)

val spawn :
  t ->
  ?label:Label.t ->
  ?clearance:Label.t ->
  ?container:oid ->
  name:string ->
  (unit -> unit) ->
  oid
(** Host-level bootstrap: create a thread outside any label checks
    (used to start init processes and test harnesses). Defaults:
    label [{1}], clearance [{2}], linked in the root container. *)

val run : t -> unit
(** Run until no thread is runnable. Threads blocked on futexes,
    alerts or device receive queues remain blocked; delivering a
    packet or alert and calling [run] again resumes them. Threads
    parked on a timer deadline ([Sys.sleep_until_ns]) do not keep the
    system alive by themselves — when only timers remain, the clock
    jumps to the earliest deadline and that thread runs; [run]
    returns once every thread is blocked on an external event. *)

val step : t -> bool
(** Run a single thread slice; [false] if nothing was runnable (after
    attempting to fire the earliest parked timer deadline). *)

val runnable_count : t -> int

val next_timer_ns : t -> int option
(** Earliest deadline (virtual ns) any thread is parked on, if any.
    Lets a multi-kernel driver (lib/dist) pick which host's idle
    clock to advance next instead of letting each [step] fire its own
    timers prematurely. *)

(** {1 Devices} *)

val attach_netdev :
  t ->
  container:oid ->
  label:Label.t ->
  mac:string ->
  transmit:(string -> unit) ->
  oid
(** Create a network device whose transmit path invokes [transmit]
    (the simulated wire). *)

val deliver_packet : t -> oid -> string -> unit
(** Host-side packet arrival: enqueue on the device receive queue and
    wake blocked receivers. *)

val host_wake_futex : t -> oid -> off:int -> unit
(** Host-side wake of all futex waiters on a segment word, for device
    glue that runs outside any thread. *)

(** {1 Persistence} *)

val checkpoint : t -> unit
(** Whole-system snapshot into the backing store (group sync). A
    kernel without a store ignores this. *)

val recover : store:Histar_store.Store.t -> t
(** Rebuild kernel state from a store. Threads recover halted; gates
    recover with dead entries (see module comment). *)

(** {1 Branchable kernel states}

    A {!handle} is an immutable version of the whole kernel: every
    live object's encoding, sorted by oid, plus the scalar machine
    state (generators, virtual time, label-cache and profile copies).
    {!fork} encodes every live object once, and the handle is a pure
    value: {!resume} any number of independent kernels from it, in any
    order. Like
    {!recover}, a resumed branch has all threads halted and
    code-carrying gates dead (continuations are not serializable);
    harnesses re-arm threads with {!restart_thread}. *)

type handle
(** An immutable, branchable whole-kernel version. *)

val fork : t -> handle
(** Capture the current state. *)

val resume : handle -> t
(** An independent kernel at the captured state: fresh clock advanced
    to the captured virtual time, generators restored, no backing
    store. Mutations never reach the handle or any sibling branch. *)

val handle_object_count : handle -> int

val restart_thread : t -> oid -> (unit -> unit) -> unit
(** Give a halted (resumed/recovered) thread a fresh entry body: same
    oid, same TLS segment, no generator state consumed, re-enqueued as
    ready. Raises [Invalid_argument] if the oid is not a thread. *)

(** {1 Introspection (host/test interface, not subject to labels)} *)

val object_count : t -> int
val profile : t -> Profile.t
val obj_label : t -> oid -> Label.t option
val obj_kind : t -> oid -> kind option
val obj_quota : t -> oid -> (int64 * int64) option
(** (quota, usage). *)

val container_children : t -> oid -> (oid * kind) list option
(** A container's children in ascending oid order, as [Container_list]
    returns them. *)

val segment_data : t -> oid -> string option
val thread_state : t -> oid -> [ `Ready | `Running | `Blocked | `Halted ] option
val thread_label : t -> oid -> Label.t option

(** {2 Conformance-observation API}

    Read-only views of the externally-specified object state, for
    comparing a kernel run against the {!Histar_model} reference
    model. Host/test interface, not subject to label checks. *)

val obj_refs : t -> oid -> int option
val obj_flags : t -> oid -> (bool * bool) option
(** (fixed_quota, immutable). *)

val obj_metadata : t -> oid -> string option
val obj_descrip : t -> oid -> string option
val thread_clearance : t -> oid -> Label.t option
val as_mappings : t -> oid -> Syscall.mapping list option
val container_parent_of : t -> oid -> oid option

type trace_event = {
  ev_thread : oid;
  ev_thread_label : Label.t;
  ev_op : string;
  ev_obj : oid;
  ev_obj_label : Label.t;
  ev_dir : [ `Observe | `Modify ];
}
(** Emitted on every *permitted* observe/modify so tests can verify the
    information-flow rules were honoured (the "flow oracle"). *)

val set_trace : t -> (trace_event -> unit) option -> unit

val infinite_quota : int64
