(** Deterministic fault-matrix sweep (the robustness claim).

    One cell runs the webserver workload end to end under a
    {!Histar_faults.Faults.Schedule.t}: an in-kernel client fetches
    pages from an external {!Histar_net.Sim_host} through netd over a
    faulty hub (loss, corruption, duplication, reordering, jitter),
    while the backing store's disk injects latent sector errors,
    transient read errors and silent write corruption. Fetched pages
    are then written to the file system and fsynced (exercising the
    WAL under disk faults), the store is scrubbed and fsck'd, and
    every surviving object is re-read from the media.

    A cell passes only if every request completed with a byte-exact
    payload, {!Histar_store.Store.scrub} converged with no lost
    objects, and {!Histar_store.Store.fsck} is clean afterwards.
    Violations raise {!Check.Falsified} with a replay line:

    {v
    HISTAR_FAULTS='seed=0xc0ffee;disk:latent=0.01;...' dune runtest
    v}

    Every decision derives from the schedule seed, so a cell is
    byte-for-byte reproducible: {!sweep} runs each cell twice and
    requires the two metrics dumps to be identical. *)

module Schedule = Histar_faults.Faults.Schedule

type cell = {
  schedule : string;  (** canonical replayable schedule string *)
  requests : int;
  completed : int;  (** must equal [requests] *)
  corrupt_payloads : int;  (** must be 0 *)
  request_retries : int;  (** request-level retries the client needed *)
  scrub : Histar_store.Store.scrub_report;
  metrics_dump : string;  (** canonical JSON of every counter in the cell's scope *)
}

val run_cell : ?requests:int -> ?body_bytes:int -> Schedule.t -> cell
(** Run one schedule to completion (defaults: 3 requests of 8 KiB).
    Raises {!Check.Falsified} on any acceptance violation. *)

val matrix : seeds:int64 list -> Schedule.t list
(** For each seed: a disk-only, a net-only and a combined schedule
    (the default fault rates), plus a link-flap variant of the
    combined schedule for the first seed. *)

val sweep :
  ?requests:int -> ?body_bytes:int -> ?seeds:int64 list -> unit -> cell list
(** Run every matrix cell twice (honoring [HISTAR_FAULTS] as an extra
    cell when set) and require the two metrics dumps to be
    byte-identical; returns the first run's cells. Default seeds are
    derived from {!Check.seed}. *)

val pp_cell : Format.formatter -> cell -> unit
