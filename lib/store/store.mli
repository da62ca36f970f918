(** The single-level store (§3, §4).

    All kernel objects live here; on bootup the entire system state is
    restored from the most recent on-disk snapshot. The store keeps a
    dirty set and a clean cache in memory:

    - {!put}/{!delete} are memory-speed and become durable at the next
      {!checkpoint} (the paper's whole-system snapshot / "group sync");
    - {!sync_oid} makes one object durable immediately by committing a
      record to the write-ahead log (the paper's fsync path); after
      [apply_threshold] logged records the store applies the log by
      checkpointing, matching the paper's "about once every 1,000
      synchronous operations";
    - {!recover} rebuilds the store from the snapshot plus the
      committed log suffix after a crash.

    Object payloads are opaque byte strings; the kernel serializes its
    objects into them. Home locations come from the two-B+-tree extent
    allocator; the object map is a third B+-tree, as in §4. *)

type t

val format :
  disk:Histar_disk.Disk.t ->
  ?wal_sectors:int ->
  ?apply_threshold:int ->
  unit ->
  t
(** Initialize an empty store on a disk. Default [wal_sectors] is
    65536 (32 MB); default [apply_threshold] is 1000 records. *)

val recover : disk:Histar_disk.Disk.t -> t
(** Rebuild from the last snapshot and replay the committed log.
    Counted in [store.recoveries]; the committed-prefix replay length
    and resulting live-object count land in [store.replayed_records]
    and [store.recovered_objects] — the numbers a shard-death drill
    reads to prove a node really came back from its own store. *)

val put : t -> oid:int -> ?prefix_len:int -> string -> unit
(** Stage an update. [prefix_len] marks the payload's first
    [prefix_len] bytes as a small header and the rest as a data region
    that {!sync_range} may later rewrite in place; without it the object
    is only ever made durable whole. *)

val set_prefix_len : t -> oid:int -> int -> unit
(** Declare the prefix length of an object already staged or homed, as
    {!put}'s [prefix_len] would have: a recovered store does not know
    its objects' layout, so without this {!sync_range} would refuse
    them until each is next {!put}. No-op for an unknown or deleted
    object. *)

val get : t -> oid:int -> string option
(** The object's current payload. A clean object is returned from the
    clean cache without copying, unless {!sync_range} has patched that
    cache since the object's last checkpoint or read: then each call
    copies it. *)

val mem : t -> oid:int -> bool

val delete : t -> oid:int -> unit
(** Removing an absent object is a no-op. *)

val sync_oid : t -> oid:int -> unit
(** Force this object (its current contents, or its deletion) to the
    log and flush. *)

val sync_oids : t -> oids:int list -> unit
(** Like {!sync_oid} for several objects with a single commit (one
    barrier) — the group-commit advantage of the log. *)

val sync_range :
  t ->
  oid:int ->
  prefix:string ->
  data:Bytes.t ->
  data_len:int ->
  off:int ->
  len:int ->
  bool
(** In-place page flush (§7.1). The object's current payload is
    [prefix] followed by [data[0, data_len)]; the block may be longer
    (a segment's spare capacity), and no byte past [data_len] is read.
    When the object is clean (no pending or logged
    update), has a home image, and that image was written with the same
    payload length and the same prefix length (see {!put}), rewrite
    just the image's header sector(s) and the sectors holding
    [data[off, off+len)] (clipped to [data_len]) with one barrier: no log
    record, no checkpoint, O(sectors written) work. The object stays
    clean and its clean copy is patched with the same bytes. Returns
    [false] without writing anything otherwise: the caller must make
    the object durable through the log ({!put} + {!sync_oid}).

    Each image's checksum is a sum of per-sector hashes, so the flush
    adjusts it by the rewritten sectors alone. The sum it stores leaves
    out the rewritten sectors after the first, which a crash inside the
    flush may leave part old, part new; those must form one run, so an
    object whose prefix spans several sectors is refused unless the
    flushed range adjoins it. A live store verifies its images (reads,
    {!scrub}, {!fsck}) against its own record of every sector hash, so
    any corruption of the flushed sectors is caught and repaired. Only
    the first read of an image after {!recover} accepts an image whose
    hashes exceed its sum by exactly one run: corruption inside the run
    of an object's last in-place flush before a restart goes
    undetected. *)

val checkpoint : t -> unit
(** Whole-system snapshot: write every dirty object to its home
    location, persist the object map and allocator, update the
    superblock, truncate the log. *)

val drop_clean_cache : t -> unit
(** Evict clean cached objects (used by the uncached-read benchmarks).
    Dirty objects are retained, and so is the per-sector hash state
    {!sync_range} needs. *)

val iter_oids : t -> (int -> unit) -> unit
(** Every live object id (dirty or persistent), in increasing order. *)

val object_count : t -> int
val dirty_count : t -> int

val free_sectors : t -> int

(** {1 Media-fault repair}

    All store reads retry transient disk errors with backoff
    ({!Histar_disk.Disk.read_retrying}). Latent sector errors and
    silent write corruption are detected by the per-object checksums
    and repaired by {!scrub}. *)

type scrub_report = {
  passes : int;  (** verify passes run (1 when already clean) *)
  scanned : int;  (** object-image verifications, summed over passes *)
  repaired : int;  (** objects re-homed from an in-memory copy *)
  quarantined_sectors : int;  (** sectors withdrawn from service *)
  lost : int list;  (** oids unreadable with no surviving copy *)
  clean : bool;  (** final pass found no faults *)
}

val scrub : ?max_passes:int -> t -> scrub_report
(** Verify and repair every durable structure: the store and WAL
    superblocks (healed by rewrite — rewriting clears a latent mark,
    like a drive remap), the checkpoint metadata extent (superseded by
    a forced checkpoint when bad), and each clean mapped object's home
    image. An image that stays unreadable after retries, or fails its
    checksum, loses its extent to the quarantine list — never returned
    to the allocator, persisted in checkpoint metadata — and its
    payload is re-homed from the clean cache when present. Repair
    writes can themselves strike new latent sectors, so the loop
    re-verifies until one pass is fault-free (bounded by [max_passes],
    default 10; [clean = false] when the bound is hit). Deterministic
    for a fixed fault seed. *)

val quarantined_extents : t -> (int * int) list
(** Quarantined [(start, sectors)] extents, in increasing start order. *)

val check_invariants : t -> unit
(** Structural checks: allocator and object-map B+-trees are valid and
    every mapped object image parses with a clean checksum. *)

val fsck : t -> unit
(** Everything in {!check_invariants}, plus whole-disk accounting: the
    object map, checkpoint metadata extent, free extents and
    quarantined extents must exactly tile the data region (no leaked
    sectors, no double allocation), the on-disk checkpoint image must
    checksum clean, and the WAL must satisfy
    {!Histar_wal.Wal.check_invariants}. Intended for the crash-sweep
    harness after {!recover}, and after {!scrub} under media faults. *)
