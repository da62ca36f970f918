(** Deterministic multi-domain runtime: a sized worker pool with an
    ordered join, per-task metrics scopes, and splittable per-index
    seeds.

    Results at [HISTAR_DOMAINS=N] are byte-identical to [N=1]: tasks
    carry stable submission indices, results are merged in submission
    order (never completion order), the lowest-index exception wins,
    and per-cell RNGs derive from the index via {!split_seed}. *)

val domains : unit -> int
(** Effective domain count: [HISTAR_DOMAINS] from the environment
    (default 1), unless overridden with {!set_domains}. *)

val set_domains : int -> unit
(** Override the domain count process-wide (tests compare runs at
    several counts without re-exec). Clamped to the pool maximum. *)

val split_seed : int64 -> int -> int64
(** [split_seed seed i] is a statistically independent seed for cell
    [i] — a pure function of [seed] and the submission index, never of
    scheduling. *)

val in_task : unit -> bool
(** True while running inside a pool task: nested {!run} calls execute
    inline on the current domain, in the task's metrics scope. *)

val run : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [run n f] evaluates [f 0 .. f (n-1)], possibly on the worker pool,
    and returns results indexed by submission order. If any task
    raised, the exception of the lowest-index failing task is
    re-raised after all tasks finished. On the pool, each task counts
    metrics in a fresh scope with the caller's enabled flag; the task
    scopes fold into the caller's scope before [run] returns or
    re-raises. [?domains] overrides the pool width for this call; [1]
    (or being {!in_task}) runs sequentially inline. *)
