(** Scale-out web cluster over lib/dist (§6 stretched across nodes):
    a front-end balancer node spraying requests over N stateless app
    server nodes backed by a *sharded* user database — D db nodes,
    each owning the consistent-hash arc of users whose categories it
    minted — with each user's private record tainted by its own
    category end-to-end.

    Each shard exports only its own users' categories, trusting only
    the balancer; app servers asserting a user's ⋆ get clamped to
    taint at the owning shard, so a compromised app server can read
    exactly the records of requests it is currently serving — the
    paper's §6.1 isolation argument at node granularity, now per
    shard. Client responses are sealed under a password-derived
    session key (the stand-in for SSL), so no hub frame ever carries
    a record or password in plaintext.

    Robustness story (this is the fault-tolerance drill rig):

    - A crash in the fault schedule powers a db node off — MAC
      detached, kernel dropped from the schedule, volatile state gone.
      Unaffected users keep being served; affected users are *refused*
      (never mis-admitted) while the balancer's
      capped-exponential-backoff health table
      ({!Histar_dist.Distd.Peer_health}) routes around the corpse,
      probing it ever more rarely.
    - Its scheduled restart brings it back from its own single-level
      store: [Store.recover] + [fsck], [Kernel.recover], then the
      persisted keeper thread — whose checkpointed label still owns
      every category the shard minted — is re-armed to re-bind the
      original wire names (identity preserved, no re-mint) and
      re-register services. The shard re-enters rotation at the next
      probe.
    - {!rebalance_user} migrates one user's arc to a live shard:
      admission *refused* during the handoff window (never
      mis-routed), record captured from a [Kernel.fork] branch of
      the live source, re-created on the target under a
      directory-delegated twin of the same wire name, retired at the
      source, both sides checkpointed before the ring commit.
    - Crash plans ([crash:node=..,at=..,restart=..] sections of
      [HISTAR_FAULTS]) arm kill/recover against global virtual time,
      composable with disk- and net-fault sections of the same
      schedule.

    Everything is seeded and driven by {!Histar_dist.Cluster}, so a
    run — including shard death, store recovery and rebalancing under
    combined fault schedules — is bit-reproducible. *)

module Category = Histar_label.Category

type t

val session_ttl_ms : int
(** How long a balancer session token stays valid, in virtual ms. *)

val build :
  ?app_nodes:int ->
  ?db_shards:int ->
  ?user_count:int ->
  ?seed:int64 ->
  ?work_us:int ->
  ?cooldown_ms:int ->
  ?faults:Histar_faults.Faults.Schedule.t ->
  unit ->
  t
(** Assemble the cluster: node 0 = balancer (dual-homed on the front
    and backbone hubs), nodes 1..N = app servers, nodes N+1..N+D = db
    shards (D = [db_shards], default 3). Each
    shard gets its own virtual disk and single-level store; user
    records and the shard's keeper thread are checkpointed at
    provisioning time. [work_us] is the modeled per-request rendering
    cost on an app node (the serial resource the scale benchmark
    measures); [cooldown_ms] seeds the balancer's backoff table
    (default 40). [faults] arms the backbone
    hub (net sections), every shard disk (disk sections) and the
    kill/restart driver (crash sections) from one schedule. *)

(** {1 Topology access (tests, benchmarks)} *)

val cluster : t -> Histar_dist.Cluster.t
val front_hub : t -> Histar_net.Hub.t
val back_hub : t -> Histar_net.Hub.t
val balancer : t -> Histar_core.Kernel.t

val app_mac : t -> int -> string
(** Backbone MAC of app node [i] — the handle for
    [Hub.set_link_faults] when flapping a node mid-run. *)

val balancer_clock : t -> Histar_util.Sim_clock.t

val users : t -> (string * string) array
(** (user, password) pairs provisioned across the shards. *)

val secret_of : t -> string -> string
(** The plaintext record provisioned for a user (for asserting what
    must and must not appear in captures and replies). *)

val served : t -> int array
(** Per-app-node request counts (host-side observability). *)

val failovers : t -> int
(** Requests re-sprayed after a transport-level backend failure. *)

val handoff_refusals : t -> int
(** Requests refused because their user's arc was mid-handoff. *)

(** {1 Shards} *)

val ring : t -> Histar_dist.Ring.t

val shard_of_user : t -> string -> int option
(** Index (0-based) of the shard whose arc currently owns the user. *)

val shard_node_id : t -> int -> int
(** Cluster node id of shard [k] (for crash-plan [node=] fields). *)

val shard_store : t -> int -> Histar_store.Store.t
(** Shard [k]'s current store handle (fsck it after recovery). *)

val shard_alive : t -> int -> bool
val shard_users : t -> int -> string list

val rebalance_user :
  t -> user:string -> to_shard:int -> (unit, string) result
(** Migrate [user]'s record and category to live shard [to_shard],
    refusing (never mis-routing) admissions for that user during the
    handoff window. Drives the cluster internally until both sides
    have checkpointed. *)

(** {1 Load driving} *)

type outcome = {
  o_user : string;
  o_request : string;
  o_reply : string;  (** unsealed reply as the client read it *)
}

val run_load :
  t -> ?concurrency:int -> (string * string * string) array -> bool * outcome array
(** Drive an array of (user, password, op) requests from kernel-less
    client hosts on the front hub; op ["user"] renders that user's
    page. Returns whether every request completed, plus per-request
    outcomes in order. Crash plans armed via [?faults] fire during
    the drive at their scheduled virtual times. *)

val clock_snapshot : t -> int64 list

val elapsed_since : t -> int64 list -> int64
(** Makespan: the largest advance of any clock in the system since
    the snapshot, in virtual ns. These two keep [int64] only because
    perfbench's dist-cluster workload is compiled against them; they
    go with that benchmark's next revision. *)
