(** Simulated sector-addressed disk.

    Substitutes for the paper's Seagate ST340014A (7200 RPM EIDE,
    ~58 MB/s media bandwidth, ~8.5 ms average seek). The model charges
    virtual time on the shared {!Histar_util.Sim_clock}:

    - a seek whenever the head moves, scaled by distance;
    - half-a-rotation of rotational latency after each seek;
    - per-sector transfer time at media bandwidth.

    Writes are buffered in a volatile write cache; {!flush} forces dirty
    sectors to the media in ascending order (elevator scan), coalescing
    contiguous runs so that sequential I/O gets near-full bandwidth and
    scattered synchronous writes pay a seek + rotation each — exactly
    the effect behind the paper's LFS sync-vs-group-sync results.

    Crash injection: {!set_crash_after_writes} makes the disk "lose
    power" after a given number of media sector writes. The write cache
    is discarded, subsequent operations raise {!Crashed}, and
    {!reopen_after_crash} yields the surviving media for recovery. *)

type t

exception Crashed

exception Read_error of { sector : int; transient : bool }
(** Raised by {!read} when the attached fault plan fails the access.
    [transient = true] means a retry may succeed (see
    {!read_retrying}); [transient = false] is a latent sector error
    that persists until the sector is rewritten. *)

type geometry = {
  sectors : int;  (** total sectors *)
  sector_bytes : int;  (** bytes per sector (512) *)
}

type params = {
  seek_min_us : float;  (** track-to-track seek *)
  seek_max_us : float;  (** full-stroke seek *)
  rotation_us : float;  (** one full platter rotation (8333 for 7200 RPM) *)
  transfer_us_per_sector : float;  (** media bandwidth *)
}

val default_params : params

val create :
  ?geometry:geometry ->
  ?params:params ->
  ?faults:Histar_faults.Faults.Disk_faults.t ->
  clock:Histar_util.Sim_clock.t ->
  unit ->
  t
(** The default geometry is 40 GB of 512-byte sectors, like the
    paper's drive. *)

val geometry : t -> geometry

val clock : t -> Histar_util.Sim_clock.t
(** The virtual clock this disk charges service time against. *)

val read : t -> sector:int -> count:int -> string
(** Reads [count] sectors; sees the write cache. Unwritten sectors read
    as zeros. Raises {!Read_error} when an attached fault plan fails
    one of the sectors (dirty cached sectors are exempt — they are
    RAM). *)

val read_retrying : ?attempts:int -> t -> sector:int -> count:int -> string
(** Like {!read}, but retries transient errors up to [attempts] times
    (default 6) with exponential backoff charged on the virtual clock
    (100 µs base, doubling). Latent errors propagate immediately. *)

val write : t -> sector:int -> string -> unit
(** Buffers a write; the data length must be a multiple of the sector
    size. *)

val flush : t -> unit
(** Write barrier: force every dirty sector to the media. *)

val media_writes : t -> int
(** Lifetime count of sector writes that reached the media through this
    handle (monotonic). The crash-sweep driver records this after a
    clean run to enumerate every possible crash point. A handle from
    {!reopen_after_crash} starts at zero. *)

val set_write_trace : t -> (sector:int -> data:string -> unit) option -> unit
(** Observe every media sector write (after it lands). Used by the
    checking harness to record write traces; [None] disables. The hook
    does not fire for writes absorbed by the volatile cache. *)

(** {1 Fault injection} *)

val set_faults : t -> Histar_faults.Faults.Disk_faults.t option -> unit
(** Attach (or clear) a deterministic media-fault plan. When set,
    media writes may silently corrupt the stored bytes or mark the
    sector latent-bad, and reads consult the plan (see
    {!Histar_faults.Faults.Disk_faults}). *)

val faults : t -> Histar_faults.Faults.Disk_faults.t option

(** {1 Crash injection} *)

val set_crash_after_writes : t -> int -> unit
(** Crash once this many more media sector writes complete. *)

val crashed : t -> bool

val reopen_after_crash : t -> t
(** A fresh disk handle over the surviving media contents. Only valid
    after a crash. O(1): the media is a persistent map, so the new
    handle shares it structurally. *)

(** {1 Branchable media states}

    The durable media is a persistent (path-copying) B+-tree, so the
    platter contents at any instant are an O(1) value. {!snapshot}
    captures them and {!restore} rebuilds an independent disk over
    them; writes on a restored disk are invisible to every other. *)

type snapshot
(** Immutable capture of the durable media contents (the volatile write
    cache is deliberately excluded — it is what a crash loses). *)

val snapshot : t -> snapshot
(** O(1). May be taken at any time, including from inside a
    pre-write hook or after a crash. *)

val restore : snapshot -> clock:Histar_util.Sim_clock.t -> t
(** A fresh disk over the captured media: empty write cache, head at
    sector 0, no crash scheduled, no faults — exactly the state
    {!reopen_after_crash} would produce had the original disk crashed
    at the capture point. O(1). *)

val set_pre_write_hook : t -> (unit -> unit) option -> unit
(** Install a hook that fires immediately {e before} each media sector
    write applies (and before any scheduled crash for that write
    triggers). At the point the hook runs for write index [n]
    ([media_writes t = n]), the media holds exactly what a crash at
    index [n] would leave behind — so [snapshot] from inside the hook
    replaces crash-and-replay with an O(1) branch. [None] disables. *)
