(** Recorded workloads for the crash-point sweep, at the layers of the
    single-level store (§4):

    - {!wal}: raw log append/commit/truncate, checking prefix
      durability — every record whose commit returned must be
      recovered, in order, possibly extended by records of a commit
      that was in flight at the crash;
    - {!store}: object create/write/delete/sync/checkpoint against a
      version-history model — the recovered value of every object must
      be a version at least as new as the newest completed barrier
      covering it, and {!Histar_store.Store.fsck} must pass;
    - {!fs}: Unix-library file operations through a full kernel over
      the store, with fsync/sync_all durability floors checked by
      re-reading every path after recovery;
    - {!fsync_range}: one multi-sector file under unaligned writes,
      in-place [Fs.fsync_range] flushes, fsyncs and sync_alls, checking
      every byte against the newest version a completed flush
      acknowledged — including crashes that tear an in-place flush.

    All four are deterministic in the seed: re-running with the same
    seed replays the identical operation sequence, so a crash index
    uniquely identifies a failure. *)

val wal : unit -> Crash_sweep.t
val store : ?nops:int -> unit -> Crash_sweep.t
val fs : ?nops:int -> unit -> Crash_sweep.t
val fsync_range : ?nops:int -> unit -> Crash_sweep.t

val all : unit -> Crash_sweep.t list
(** The four standard workloads with default sizes. *)
