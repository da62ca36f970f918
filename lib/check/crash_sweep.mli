(** Deterministic crash-point sweep driver (§4 durability claim).

    A workload is a factory producing, from a seed, a fresh simulated
    disk plus a deterministic [run] against it and a recovery [check].
    The driver executes the workload once cleanly and records the total
    number of media sector writes [W] via {!Histar_disk.Disk.media_writes};
    every [i] in [\[0, W)] is then a distinct crash point: the media as
    of writes [0..i-1] with the volatile cache lost must recover and
    validate every invariant.

    During the single clean run, a pre-write hook captures an O(1)
    persistent-media snapshot plus the workload's model state before
    every write; each cell then branches a disk off its capture and
    checks — O(W) for the whole sweep.

    The replay cell — re-execute the whole workload with
    [set_crash_after_writes i], O(W) per cell — is kept only as the
    reference the sweep is tested against: {!replay_cell} raises the
    falsification the sweep raises at the same index, and
    {!recovery_metrics} lets tests assert the recovery work is
    metric-for-metric the same.

    By default a strided sample of at most [max_points] indices
    (always including [0] and [W-1]) is swept so the test stays tier-1
    fast; with [HISTAR_CHECK_FULL=1] every crash point is visited.

    Any violation raises {!Check.Falsified} with the seed and crash
    index, replayable in one command:

    {v
    HISTAR_CHECK_SEED=0xSEED HISTAR_CHECK_WORKLOAD=store \
      HISTAR_CHECK_CRASH_INDEX=123 dune runtest
    v} *)

type mode = [ `Fork | `Replay ]
(** How {!recovery_metrics} produces a crashed media state: branched
    off the sweep's clean-run capture, or by the replay oracle. *)

type instance = {
  disk : Histar_disk.Disk.t;  (** fresh, unformatted *)
  run : unit -> unit;
      (** Execute the workload against [disk]; must be deterministic in
          the seed, and must let {!Histar_disk.Disk.Crashed} escape. *)
  check : crashed:bool -> Histar_disk.Disk.t -> unit;
      (** Validate recovery; the disk has been reopened if [crashed].
          Raises on any invariant violation. *)
  snapshot : unit -> unit -> unit;
      (** Capture the workload's own model state (history arrays,
          expected-durability floors, …), returning a thunk that
          restores it. The model capture taken before media write [i]
          must describe exactly the state a replayed run has when it
          crashes at [i]. *)
}

type t = { name : string; mk : int64 -> instance }

type report = {
  workload : string;
  total_writes : int;  (** media writes in the clean run *)
  points : int;  (** crash indices actually exercised *)
  wall_seconds : float;  (** host CPU time for the whole sweep *)
}

val sweep : ?seed:int64 -> ?max_points:int -> ?full:bool -> t -> report
(** Defaults: seed from {!Check.seed}, [max_points] 64, [full] from
    {!Check.full_mode}. Honors [HISTAR_CHECK_WORKLOAD] /
    [HISTAR_CHECK_CRASH_INDEX] for single-point replay.

    Cells run in one loop, in ascending crash index, all off the one
    clean run's captures; the first (lowest-index) failing cell's
    falsification is raised. *)

val replay_cell : t -> seed:int64 -> total:int -> int -> unit
(** [replay_cell w ~seed ~total i] is the replay oracle for crash
    index [i]: a fresh instance re-runs the whole workload with a
    crash scheduled after [i] media writes, reopens and checks. It
    raises the falsification the sweep raises at [i] ([total] is the
    clean run's media-write count, which the report quotes). *)

val recovery_metrics :
  t ->
  seed:int64 ->
  index:int ->
  mode:mode ->
  Histar_metrics.Metrics.snapshot
(** Produce the crashed media at [index] by the given mode, then run
    the workload's [check] with the metrics registry enabled only
    around it, returning the metric delta of the recovery work. The
    fork/replay equivalence tests assert the two deltas are
    byte-identical. *)

val cells_per_sec : report -> float
(** Sweep throughput. *)

val pp_report : Format.formatter -> report -> unit
