(* Seeded, deterministic, replayable fault schedules.

   A [Schedule.t] is a compact description of which faults to inject
   — disk (latent sector read errors, transient I/O errors, silent
   bit corruption) and network (loss, corruption, duplication,
   bounded reordering, delay jitter, link flaps) — plus the seed that
   makes every decision reproducible.  The consumers ([Disk], [Hub])
   take the decision plans built from a schedule and ask them on
   every media write / read / injected frame.

   One env knob, following the HISTAR_CHECK_* discipline:
     HISTAR_FAULTS  schedule string, seed included, e.g.
                      "seed=0xc0ffee;disk:latent=0.01;net:loss=0.05,dup=0.02" *)

module Schedule : sig
  type disk = {
    latent_rate : float;
        (** probability that a media write leaves the sector
            latent-bad: subsequent reads fail persistently until the
            sector is rewritten (drive-remap semantics) *)
    transient_rate : float;
        (** probability that any single read attempt fails with a
            retryable I/O error *)
    corrupt_rate : float;
        (** probability that a media write silently flips one byte of
            the stored sector *)
  }

  type net = {
    loss_rate : float;  (** probability an injected frame is dropped *)
    corrupt_rate : float;  (** probability one byte of the frame flips *)
    duplicate_rate : float;  (** probability the frame is delivered twice *)
    reorder_rate : float;
        (** probability the frame is held back and released only after
            up to [reorder_depth] later frames *)
    reorder_depth : int;
    jitter_us : int;  (** max extra per-frame delay, uniform in [0,jitter] *)
    flap_period_ms : int;
        (** link flaps: every [flap_period_ms] the link goes down for
            the trailing [flap_down_ms]; 0 disables flaps *)
    flap_down_ms : int;
  }

  type crash = {
    crash_node : int;  (** cluster node id, consumer-interpreted *)
    at_ms : int;  (** kill the node at this virtual millisecond *)
    restart_after_ms : int option;
        (** restart this many ms after the kill; [None] = stays dead *)
  }

  type t = {
    seed : int64;
    disk : disk option;
    net : net option;
    crashes : crash list;
  }

  val default_disk : disk
  val default_net : net
  val none : t

  val mk :
    ?seed:int64 -> ?disk:disk -> ?net:net -> ?crashes:crash list -> unit -> t

  val to_string : t -> string
  (** Compact replayable form; [of_string (to_string t) = Ok t]. *)

  val of_string : string -> (t, string) result
  val of_env : unit -> t option
  (** Reads HISTAR_FAULTS; [None] when unset or empty. Raises [Failure]
      naming the variable when the string does not parse. *)

  val pp : Format.formatter -> t -> unit
end

(** Disk-side decision plan.  Pure state machine over a split of the
    schedule seed; all probabilistic choices are deterministic given
    the schedule. *)
module Disk_faults : sig
  type t

  type read_verdict =
    | Read_ok
    | Read_transient  (** retryable: a later attempt may succeed *)
    | Read_latent  (** persistent until the sector is rewritten *)

  val create : Schedule.t -> t option
  (** [None] when the schedule injects no disk faults. *)

  val on_media_write : t -> sector:int -> string -> string
  (** Called once per sector media write.  Returns the data actually
      stored (possibly with a silently flipped byte), clears any
      latent mark on the sector, and may mark it latent-bad. *)

  val on_read : t -> sector:int -> read_verdict
  val is_latent : t -> sector:int -> bool
  val latent_count : t -> int
end

(** Network-side decision plan, consulted by [Hub] once per injected
    frame. *)
module Net_faults : sig
  type t

  type verdict = {
    drop : [ `No | `Loss | `Flap ];
    corrupt : bool;
    duplicate : bool;
    hold : int;  (** deliver after this many subsequent frames; 0 = now *)
    jitter_ns : int64;
  }

  val create : Schedule.t -> t option
  (** [None] when the schedule injects no network faults. *)

  val link_up : t -> now_ns:int64 -> bool
  val on_frame : t -> now_ns:int64 -> verdict
  val corrupt_bytes : t -> bytes -> unit
  (** Flip one deterministic-random byte in place. *)
end

(** Node-crash plan: schedule-driven (not probabilistic) kill /
    restart events at virtual times, polled by a cluster driver
    against global virtual time. Each event fires exactly once, in
    time order (kill before restart on a tie), so a crash scenario is
    a pure function of the schedule string — the same
    [HISTAR_FAULTS="crash:node=2,at=500,restart=300"] line replays the
    same kill. Fired kills and restarts are counted in
    [faults.node_kills] / [faults.node_restarts]. *)
module Node_faults : sig
  type t

  type action =
    | Kill of int  (** take the node off the cluster, volatile state lost *)
    | Restart of int  (** recover the node from its own durable store *)

  val create : Schedule.t -> t option
  (** [None] when the schedule has no crash entries. *)

  val due : t -> now_ns:int64 -> action list
  (** Pop every event with firing time <= [now_ns], in order. *)

  val remaining : t -> int
end
