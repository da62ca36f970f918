(** Virtual time source shared by the simulated disk, network and kernel.

    Time is a native [int] of nanoseconds at every interface (63 bits,
    about 146 years). Components advance the clock to model the latency
    of the operations they simulate; benchmarks read elapsed virtual
    time instead of wall-clock time, which makes the results
    deterministic and machine-independent. The one field stays an
    [int64], so [advance] allocates the box it always has: dropping it
    moves perfbench's [Gc.quick_stat] readings (EXPERIMENTS, "Virtual
    time as int"). *)

type t

val create : unit -> t

val now : t -> int
(** Current virtual time in nanoseconds. *)

val advance : t -> int -> unit
(** Move time forward; [Invalid_argument] if the amount is negative.
    Time stops at [max_int] rather than wrapping. *)

val advance_us : t -> float -> unit
(** [advance] by microseconds, truncated to whole nanoseconds. *)

val now_ns : t -> int64
(** [now] as an [int64], for perfbench, which is compiled against it. *)
