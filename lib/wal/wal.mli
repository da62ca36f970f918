(** Write-ahead log over a fixed region of the simulated disk (§4).

    The paper uses write-ahead logging for atomicity and crash
    consistency, queuing synchronous updates in a sequential on-disk
    log that is applied to home locations in batches. This module
    provides exactly that: records are appended in memory, forced with
    {!commit} (a sequential write plus a barrier), and discarded with
    {!truncate} once the application has checkpointed their effects.

    On-disk format: sector 0 of the region is a superblock holding the
    current epoch; records follow from sector 1, each with a header
    carrying magic, epoch, sequence number, payload length and an
    FNV-64 checksum. Recovery scans forward and stops at the first
    record that fails validation, yielding the committed prefix.

    Media faults: log reads retry transient errors with backoff; a
    latent sector error inside the log body ends the scan at that point
    (the committed prefix before it replays normally, the suffix is
    lost — counted by the [wal.media_read_stops] metric). *)

type t

exception Log_full

val format : disk:Histar_disk.Disk.t -> start:int -> sectors:int -> t
(** Initialize a fresh, empty log region. [sectors] must be at least 8. *)

val recover :
  disk:Histar_disk.Disk.t -> start:int -> sectors:int -> t * string list
(** Open an existing region, returning the log handle and the payloads
    of every committed record since the last {!truncate}, in order. *)

val append : t -> string -> unit
(** Buffer a record; durable only after {!commit}. Raises {!Log_full}
    if the region cannot hold the buffered data. *)

val commit : t -> unit
(** Force buffered records: one sequential write and a disk flush. *)

val truncate : t -> unit
(** Logically empty the log (bumps the epoch; a single-sector write
    plus flush). Called after a checkpoint has applied the records. *)

val rewrite_superblock : t -> unit
(** Rewrite the superblock from in-memory state. Rewriting a sector
    clears a latent media error (drive remap), so the store's scrub
    path uses this to heal a log superblock that stops reading back. *)

val committed_records : t -> int
(** Records durable in the current epoch. *)

val pending_records : t -> int
(** Records appended but not yet committed. *)

val free_sectors : t -> int

val epoch : t -> int64
(** Current epoch; bumped by {!truncate}. The store records in its
    superblock which epoch's records are valid to replay over the
    snapshot, closing the crash window between a checkpoint's
    superblock write and the log truncate. *)

val check_invariants : t -> unit
(** Raises [Failure] if the handle and the on-disk log disagree: the
    region must re-parse to exactly [committed_records] records of the
    current epoch ending at the in-memory head, the superblock epoch
    must match, and the sequence counter must account for every
    committed and pending record. *)
