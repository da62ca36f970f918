(** Deterministic driver for several independent kernels (cluster
    nodes) plus kernel-less client stacks, each with its own virtual
    clock. Rounds are reproducible functions of the seeds: runnable
    kernels are sliced in registration order, and when all are idle
    exactly one timer fires — the one with the smallest wait
    *relative to its own host's clock* (ties by registration
    order). *)

type t

val create : unit -> t
val add_kernel : t -> Histar_core.Kernel.t -> unit

val remove_kernel : t -> Histar_core.Kernel.t -> unit
(** Node crash: stop scheduling the kernel and stop honoring its
    timers — volatile state is never consulted again.  Re-adding a
    recovered kernel with {!add_kernel} appends it to registration
    order (part of the deterministic schedule). *)

val global_now_ns : t -> int
(** Global virtual now — the maximum over every clock in the
    cluster.  Crash schedules ([crash:node=..,at=..] entries) are
    written against this axis. *)

val sync_clocks : t -> unit
(** Jointly advance every clock to {!global_now_ns} — what a timer
    firing does implicitly, exposed for hosts that want a clean time
    baseline after un-driven work (e.g. a build that charged disk
    time to one node's clock during provisioning). *)

val set_on_tick : t -> (int -> unit) option -> unit
(** Driver hook invoked with [global_now_ns] once per {!drive} round
    (before slicing).  Used to pump node-crash fault plans: the hook
    kills/restarts nodes when their virtual-time deadlines pass. *)

val add_host :
  t -> stack:Histar_net.Stack.t -> clock:Histar_util.Sim_clock.t -> unit
(** Register an external (kernel-less) endpoint whose retransmission
    timers the driver must honor: advancing [clock] to the stack's
    earliest RTO deadline and ticking it counts as firing a timer. *)

val remove_host : t -> Histar_net.Stack.t -> unit
(** Stop honoring a host's timers: the inverse of {!add_host}, for
    client endpoints whose work is done. Hub attachment is the
    caller's business. *)

val kernels : t -> Histar_core.Kernel.t list

val host_count : t -> int
(** Hosts currently registered with {!add_host}. *)

val settle : t -> unit
(** Run every kernel to quiescence without firing timers: boot work
    (netd init, service registration, listeners parking in accept)
    completes before any cross-node traffic starts, so a connection
    attempt cannot race a listener that has not yet registered. *)

val drive : t -> until:(unit -> bool) -> unit -> bool
(** Run until [until ()] (checked every round — it doubles as the
    caller's poll/pump hook) or deadlock/exhaustion; [true] iff
    [until] held. Each round runs at most 20,000 consecutive steps
    per kernel so no node starves another, and [drive] gives up after
    200,000 rounds. *)
