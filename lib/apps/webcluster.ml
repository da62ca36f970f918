(* Scale-out web cluster over lib/dist: the §6 web server stretched
   across nodes, with each user's category enforced end-to-end and
   the user database sharded so no single node's death takes down
   authentication cluster-wide.

   Topology (all virtual, all deterministic):

     clients ── front hub ── balancer(node 0) ── backbone hub ──┬─ app 1
                                                                ├─ ...
                                                                ├─ app A
                                                                ├─ db shard A+1
                                                                ├─ ...
                                                                └─ db shard A+D

   The balancer is dual-homed: a front netd on the client hub and a
   backbone netd carrying distd traffic. App servers are stateless
   page renderers. Users are sharded across D db nodes by consistent
   hash of the user's category identity ({!Ring}); each shard owns
   only its own users' categories, exports them trusting only the
   balancer, and persists everything — records, categories, its
   parked keeper thread — in its own single-level store.

   Per-request label story: a shard exports each of its user
   categories with trust = [balancer] only. A front request
   "user pass op" is authenticated against the owning shard's "auth"
   service, whose reply grants the user's category — so the balancer
   worker *owns* the user's taint for the rest of the request,
   exactly like the §6.2 login sequence, but with the grant crossing
   the wire. The worker then calls an app server's "page" service at
   its {c_u⋆} label; the app honors the ⋆ (balancer is trusted) and
   its proxy fetches the record from the owning shard, where the
   app's asserted ⋆ is *clamped to 3* (app servers are not trusted to
   speak for user categories): the shard-side proxy runs tainted
   {c_u 3} and can read exactly that user's record and nothing else —
   a compromised app server can leak only the requests it was already
   handling, never another user's record (the paper's §6.1 argument,
   node-granular). The reply chain carries the taint back; the
   balancer absorbs it with its ⋆ and seals the page to the client
   under a password-derived session key, standing in for SSL. No hub
   frame ever carries a record or password in plaintext.

   Session tokens: a successful auth caches a *sealed* token
   (user, wire name, password hash, expiry) at the front end. A later
   request inside the TTL skips the auth round-trip to the shard —
   but stays label-preserving: the worker still acquires the user's ⋆
   through the local grant gate left by the first claim, so every
   label check downstream is exactly the one the slow path runs.
   Wrong passwords miss the token (hash mismatch) and fall through to
   real auth.

   Failover (apps and shards alike): a transport failure marks the
   node down in a {!Distd.Peer_health} table — capped exponential
   backoff, probes counted in [net.dist_probes] — and requests route
   around it. Label refusals are never retried — they are answers.

   Shard death and recovery: killing a shard detaches its backbone
   MAC and removes its kernel from the cluster schedule (volatile
   state is gone). Affected users are *refused* (auth/get transport
   errors) — never mis-admitted — while unaffected users keep being
   served. Recovery is store-based: [Store.recover]+[fsck] from the
   shard's own disk, [Kernel.recover], then the persisted keeper
   thread — whose label still owns every category the shard ever
   minted — is re-armed with [restart_thread] to re-bind wire names
   (identity is preserved: no re-mint, so remote twins and directory
   trust stay valid) and re-register services. The shard then
   re-enters rotation on the next successful probe.

   Rebalance: migrating a user to another shard marks the owning ring
   arc *draining* — admission refused, never mis-routed — reads the
   record host-side from the live source between rounds,
   re-creates it on the target under the target's twin of the same
   wire name (the origin delegates speaking-for trust), retires it at
   the source, and commits the arc. Both sides checkpoint before the
   commit, so a crash after rebalance recovers the post-move world. *)

module Label = Histar_label.Label
module Level = Histar_label.Level
module Category = Histar_label.Category
module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Types = Histar_core.Types
module Metrics = Histar_metrics.Metrics
module Hub = Histar_net.Hub
module Addr = Histar_net.Addr
module Netd = Histar_net.Netd
module Stack = Histar_net.Stack
module Sim_host = Histar_net.Sim_host
module Sim_clock = Histar_util.Sim_clock
module Rng = Histar_util.Rng
module Checksum = Histar_util.Checksum
module Seal = Histar_crypto.Seal
module Disk = Histar_disk.Disk
module Store = Histar_store.Store
module Faults = Histar_faults.Faults
module Wire = Histar_dist.Wire
module Names = Histar_dist.Names
module Distd = Histar_dist.Distd
module Ring = Histar_dist.Ring
module Cluster = Histar_dist.Cluster

let l1 = Label.make Level.L1
let l3 = Label.make Level.L3

type node = {
  n_id : int;
  n_kernel : Kernel.t;
  n_clock : Sim_clock.t;
  n_netd : Netd.t;
  n_dist : Distd.t;
}

(* One user-db shard. The disk outlives the kernel: a kill drops the
   kernel (volatile state), a recover rebuilds one from the disk. *)
type shard = {
  sh_idx : int;  (* 0..D-1 *)
  sh_id : int;  (* cluster node id *)
  sh_disk : Disk.t;
  mutable sh_store : Store.t;
  mutable sh_node : node;
  mutable sh_alive : bool;
  mutable sh_users : string list;  (* owned users, stable order *)
  sh_records : (string, Category.t * Types.oid * int64) Hashtbl.t;
      (* user -> (local cat, record segment oid, wire name); host-side
         cache, rebuilt from the persisted index on recovery *)
  mutable sh_index : Types.oid;  (* index segment: the recovery map *)
  mutable sh_keepers : (Types.oid * string list) list;
      (* parked keeper threads and the users each owns; every keeper's
         persisted label carries ⋆ of its users' categories, which is
         what makes post-recovery re-export possible *)
}

type t = {
  cluster : Cluster.t;
  front : Hub.t;
  back : Hub.t;
  edge_clock : Sim_clock.t;  (* shared by kernel-less client hosts *)
  key : int64;
  directory : Names.Directory.t;
  balancer : node;
  apps : node array;
  shards : shard array;
  ring : Ring.t;  (* shared routing table: balancer + apps *)
  health : Distd.Peer_health.t;  (* balancer-side, apps and shards *)
  users : (string * string) array;  (* user, password *)
  secrets : (string * string) list;  (* user, plaintext record *)
  served : int array;  (* per app node, host-side observability *)
  mutable rotation : int;
  mutable failovers : int;
  mutable handoff_refused : int;
  work_us : int;
  session_seal : Seal.t;
  sessions : (string, string) Hashtbl.t;  (* user -> sealed token *)
  mutable node_faults : Faults.Node_faults.t option;
}

let m_requests = Metrics.counter "webcluster.requests"
let m_failovers = Metrics.counter "webcluster.failovers"
let m_session_hits = Metrics.counter "webcluster.session_hits"
let m_handoff_refused = Metrics.counter "webcluster.handoff_refused"
let m_shard_kills = Metrics.counter "webcluster.shard_kills"
let m_shard_recoveries = Metrics.counter "webcluster.shard_recoveries"
let m_rebalances = Metrics.counter "webcluster.rebalances"

(* --- addressing --- *)

let back_ip i = Printf.sprintf "10.1.0.%d" (i + 1)
let back_mac i = Printf.sprintf "bk%02d" i
let dist_port = 7000
let front_port = 80

(* How long a balancer session token stays valid. *)
let session_ttl_ms = 5_000

(* Session sealing key, computable by client and balancer alike from
   the password — the stand-in for an SSL handshake. *)
let session_key ~user ~password =
  Checksum.fnv64 (Printf.sprintf "sess:%s:%s" user password)

(* Ring key: the user's category identity. The category itself is
   minted by whichever shard the ring assigns, so the stable name is
   the user the category stands for. *)
let user_key user = "user:" ^ user
let pw_hash pass = Checksum.fnv64 ("pw:" ^ pass)

let shard_by_id t id =
  let found = ref None in
  Array.iter (fun sh -> if sh.sh_id = id then found := Some sh) t.shards;
  !found

(* --- construction --- *)

let dist_peer i = Addr.v (back_ip i) dist_port

(* Node [i]'s kernel seed, derived from the cluster seed. *)
let node_seed seed i = Int64.add seed (Int64.of_int (1000 * (i + 1)))

(* The one place a node is brought up, on a kernel the caller built
   (fresh, on a shard's disk, or recovered from it): schedule it,
   attach it to the backbone and start its distd. *)
let mk_node ~cluster ~back ~key ~directory i n_kernel =
  Cluster.add_kernel cluster n_kernel;
  let root = Kernel.root n_kernel in
  let n_netd =
    Netd.start n_kernel ~hub:back ~container:root
      ~ip:(Addr.ip_of_string (back_ip i))
      ~mac:(back_mac i) ()
  in
  let names = Names.create ~node_id:i ~key ~directory in
  let n_dist =
    Distd.start n_kernel ~netd:n_netd ~names ~key ~container:root
      ~port:dist_port ~peers:dist_peer ()
  in
  { n_id = i; n_kernel; n_clock = Kernel.clock n_kernel; n_netd; n_dist }

(* Index segment: one "user wire cat seg" line per record, written at
   {1} on every membership change and read host-side after a crash to
   rebuild the shard's record table. The store persists it with
   everything else — this is the shard's own durable name service. *)
let render_index sh =
  String.concat ""
    (List.map
       (fun user ->
         let c, seg, wire = Hashtbl.find sh.sh_records user in
         Printf.sprintf "%s %Ld %d %d\n" user wire (c :> int) seg)
       sh.sh_users)

let parse_index data =
  String.split_on_char '\n' data
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ user; wire; cat; seg ] ->
             Some
               ( user,
                 Int64.of_string wire,
                 Category.of_int64 (Int64.of_string cat),
                 Types.oid_of_int64 (Int64.of_string seg) )
         | _ -> None)

(* Park a keeper thread: alive (so the checkpoint keeps it, label and
   all) but dormant. The hour-long timer only fires if nothing else in
   the cluster ever wants to run. *)
let rec park () =
  Sys.sleep_until_ns (Sys.clock_ns () + 3_600_000_000_000);
  park ()

let rec build ?(app_nodes = 2) ?(db_shards = 3) ?(user_count = 4)
    ?(seed = 7L) ?(work_us = 800) ?cooldown_ms ?faults () =
  let db_shards = max 1 db_shards in
  let cluster = Cluster.create () in
  let edge_clock = Sim_clock.create () in
  let front_clock = Sim_clock.create () in
  let back_clock = Sim_clock.create () in
  (* A fast, quiet backbone and edge: the interesting serial resource
     in the scale benchmark must be app CPU, not wire time. *)
  let front = Hub.create ~bandwidth_bps:1e9 ~latency_us:10.0 ~clock:front_clock () in
  let back =
    Hub.create ~bandwidth_bps:1e9 ~latency_us:10.0
      ?faults:(Option.bind faults Faults.Net_faults.create)
      ~clock:back_clock ()
  in
  let key = Int64.logxor 0x6469737463616673L seed in
  let directory = Names.Directory.create () in
  let node i =
    mk_node ~cluster ~back ~key ~directory i
      (Kernel.create ~seed:(node_seed seed i) ())
  in
  let balancer = node 0 in
  let apps = Array.init app_nodes (fun i -> node (i + 1)) in
  let shards =
    Array.init db_shards (fun k ->
        let id = app_nodes + 1 + k in
        let sh_clock = Sim_clock.create () in
        (* The disk is the shard's durable identity; the kernel is
           expendable. Disk faults from the schedule apply here. *)
        let disk_faults = Option.bind faults Faults.Disk_faults.create in
        let sh_disk = Disk.create ?faults:disk_faults ~clock:sh_clock () in
        let sh_store = Store.format ~disk:sh_disk () in
        (* The disk keeps charging the clock it was created with, which
           for the initial kernel is the kernel's own. *)
        let kernel =
          Kernel.create ~seed:(node_seed seed id) ~clock:sh_clock
            ~store:sh_store ()
        in
        {
          sh_idx = k;
          sh_id = id;
          sh_disk;
          sh_store;
          sh_node = mk_node ~cluster ~back ~key ~directory id kernel;
          sh_alive = true;
          sh_users = [];
          sh_records = Hashtbl.create 8;
          sh_index = 0;
          sh_keepers = [];
        })
  in
  let ring = Ring.create (Array.to_list (Array.map (fun sh -> sh.sh_id) shards)) in
  let rng = Rng.create (Int64.logxor seed 0x77656263L) in
  let users =
    Array.init user_count (fun i ->
        ( Printf.sprintf "user%d" i,
          Printf.sprintf "pw%d-%08Lx" i (Int64.logand (Rng.next64 rng) 0xffffffffL) ))
  in
  let secrets =
    Array.to_list
      (Array.map
         (fun (u, _) ->
           (u, Printf.sprintf "SECRET-%s-%08Lx" u
                 (Int64.logand (Rng.next64 rng) 0xffffffffL)))
         users)
  in
  let health =
    match cooldown_ms with
    (* An explicit cooldown scales the whole backoff schedule: cap at
       4x so a healed node re-enters within a few request batches
       even after a long outage drove the window to the cap. *)
    | Some cd -> Distd.Peer_health.create ~cooldown_ms:cd ~cap_ms:(4 * cd) ()
    | None -> Distd.Peer_health.create ()
  in
  let t =
    {
      cluster;
      front;
      back;
      edge_clock;
      key;
      directory;
      balancer;
      apps;
      shards;
      ring;
      health;
      users;
      secrets;
      served = Array.make app_nodes 0;
      rotation = 0;
      failovers = 0;
      handoff_refused = 0;
      work_us;
      session_seal = Seal.create ~key:(Int64.logxor key 0x746f6b656e73L);
      sessions = Hashtbl.create 16;
      node_faults = None;
    }
  in
  Array.iter (fun sh -> setup_shard t sh) t.shards;
  Array.iteri (fun i _ -> setup_app t i) apps;
  setup_balancer t;
  (* Provision to quiescence inside build: the keepers mint, export,
     write and checkpoint now (charging disk time to their own
     shards' clocks), and the joint clock sync makes that cost part
     of the baseline — a snapshot taken after [build] measures
     serving, not provisioning. *)
  Cluster.settle cluster;
  Cluster.sync_clocks cluster;
  (* The edge clock joins the cluster only when run_load registers
     client hosts — bring it to the same baseline by hand. *)
  let skew = Cluster.global_now_ns cluster - Sim_clock.now edge_clock in
  if skew > 0 then Sim_clock.advance edge_clock skew;
  (match faults with Some sched -> arm_crashes t sched | None -> ());
  t

(* --- db shards: sharded record store, auth and get services --- *)

(* (Re-)register the shard's services against its current record
   table. The auth label lists every owned category at ⋆ — the actual
   privilege comes from the grant gates installed at export/rebind
   time, which the conn thread claims per admission. Runs from keeper
   threads (initial boot, recovery, rebalance import/retire); each
   call bumps the distd service version, invalidating per-connection
   admission memos built against the old shard membership. *)
and register_services t sh =
  let d = sh.sh_node in
  let auth_label =
    List.fold_left
      (fun acc user ->
        let c, _, _ = Hashtbl.find sh.sh_records user in
        Label.set acc c Level.Star)
      l1 sh.sh_users
  in
  Distd.register d.n_dist ~service:"auth" ~label:auth_label ~clearance:l3
    (fun args ->
      match String.split_on_char ' ' args with
      | [ user; pass ] -> (
          match Hashtbl.find_opt sh.sh_records user with
          | None -> ("denied", [])
          | Some (c, _, _) -> (
              match Array.find_opt (fun (u, _) -> u = user) t.users with
              | Some (_, pw) when pw = pass -> ("ok", [ c ])
              | Some _ | None -> ("denied", [])))
      | _ -> ("denied", []));
  Distd.register d.n_dist ~service:"get" ~label:l1 ~clearance:l3 (fun user ->
      match Hashtbl.find_opt sh.sh_records user with
      | None -> ("no such user", [])
      | Some (_, seg, _) ->
          let root = Kernel.root sh.sh_node.n_kernel in
          (Sys.segment_read (Types.centry root seg) (), []))

(* Rewrite the persisted index after a membership change. The caller
   must run on a thread of the shard's kernel. *)
and rewrite_index sh =
  let root = Kernel.root sh.sh_node.n_kernel in
  let data = render_index sh in
  let e = Types.centry root sh.sh_index in
  Sys.segment_resize e (String.length data);
  Sys.segment_write e data

and setup_shard t sh =
  let d = sh.sh_node in
  let root = Kernel.root d.n_kernel in
  let mine =
    Array.to_list t.users
    |> List.filter (fun (u, _) -> Ring.owner t.ring (user_key u) = Some sh.sh_id)
    |> List.map fst
  in
  sh.sh_users <- mine;
  (* The keeper does all provisioning and then parks *owning every
     category it minted*: its thread label is checkpointed with the
     rest of the shard, and recovery re-arms exactly this thread so
     the ⋆s needed to re-export come back from the store, not from a
     trusted host. *)
  let keeper =
    Kernel.spawn d.n_kernel ~label:l1 ~clearance:l3 ~container:root
      ~name:(Printf.sprintf "db-keeper-%d" sh.sh_idx)
      (fun () ->
        List.iter
          (fun user ->
            let c = Sys.cat_create () in
            (* Only the balancer may speak for user categories. *)
            let wire = Distd.export_owned d.n_dist ~trust:[ 0 ] c in
            let secret = List.assoc user t.secrets in
            let seg =
              Sys.segment_create ~container:root
                ~label:(Label.of_list [ (c, Level.L3) ] Level.L1)
                ~quota:4096L ~len:(String.length secret)
                (Printf.sprintf "rec-%s" user)
            in
            Sys.segment_write (Types.centry root seg) secret;
            Hashtbl.replace sh.sh_records user (c, seg, wire))
          mine;
        let data = render_index sh in
        let idx =
          Sys.segment_create ~container:root ~label:l1 ~quota:16384L
            ~len:(String.length data) "db-index"
        in
        Sys.segment_write (Types.centry root idx) data;
        sh.sh_index <- idx;
        register_services t sh;
        (* Checkpoint: records, categories, the index and this very
           thread (with its ⋆-laden label) become durable. *)
        Sys.sync_all ();
        park ())
  in
  sh.sh_keepers <- [ (keeper, mine) ]

(* --- shard death, recovery, rebalance --- *)

and kill_shard t k =
  let sh = t.shards.(k) in
  if sh.sh_alive then begin
    sh.sh_alive <- false;
    Metrics.Counter.incr m_shard_kills;
    (* Power off: backbone MAC gone (frames to it drop as no_route),
       kernel out of the schedule — volatile state is never consulted
       again. The disk, and only the disk, survives. *)
    Hub.detach t.back ~mac:(back_mac sh.sh_id);
    Cluster.remove_kernel t.cluster sh.sh_node.n_kernel
  end

and recover_shard t k =
  let sh = t.shards.(k) in
  if not sh.sh_alive then begin
    Metrics.Counter.incr m_shard_recoveries;
    (* Single-level store recovery: snapshot + committed WAL prefix,
       then a full fsck — a shard that cannot prove its disk clean
       does not re-enter rotation (fsck raises). *)
    let store = Store.recover ~disk:sh.sh_disk in
    Store.fsck store;
    sh.sh_store <- store;
    let kern = Kernel.recover ~store in
    let node =
      mk_node ~cluster:t.cluster ~back:t.back ~key:t.key
        ~directory:t.directory sh.sh_id kern
    in
    sh.sh_node <- node;
    (* Rebuild the host-side record table from the persisted index. *)
    (match Kernel.segment_data kern sh.sh_index with
    | None -> failwith "recover_shard: index segment missing after recovery"
    | Some data ->
        Hashtbl.reset sh.sh_records;
        List.iter
          (fun (user, wire, cat, seg) ->
            Hashtbl.replace sh.sh_records user (cat, seg, wire))
          (parse_index data));
    sh.sh_users <-
      List.filter (fun u -> Hashtbl.mem sh.sh_records u)
        (List.concat_map (fun (_, us) -> us) sh.sh_keepers);
    (* Re-arm every keeper: each recovers halted with its persisted
       label — still owning its users' categories — and re-binds the
       original wire names (no re-mint: remote twins and directory
       trust stay valid) before re-registering services. *)
    List.iter
      (fun (koid, kusers) ->
        Kernel.restart_thread kern koid (fun () ->
            List.iter
              (fun user ->
                match Hashtbl.find_opt sh.sh_records user with
                | Some (cat, _, wire) ->
                    Distd.rebind_owned node.n_dist ~wire cat
                | None -> ())
              kusers;
            register_services t sh;
            park ()))
      sh.sh_keepers;
    sh.sh_alive <- true;
    (* Boot to quiescence (netd init, listener parked in accept,
       keepers re-registered) before any traffic hits the shard. *)
    Cluster.settle t.cluster
  end

(* Pump a node-crash plan against global virtual time. *)
and arm_crashes t sched =
  match Faults.Node_faults.create sched with
  | None -> ()
  | Some nf ->
      t.node_faults <- Some nf;
      Cluster.set_on_tick t.cluster
        (Some
           (fun now_ns ->
             List.iter
               (function
                 | Faults.Node_faults.Kill n -> (
                     match shard_by_id t n with
                     | Some sh -> kill_shard t sh.sh_idx
                     | None -> ())
                 | Faults.Node_faults.Restart n -> (
                     match shard_by_id t n with
                     | Some sh -> recover_shard t sh.sh_idx
                     | None -> ()))
               (Faults.Node_faults.due nf ~now_ns)))

(* --- app nodes: stateless page rendering --- *)

and setup_app t i =
  let a = t.apps.(i) in
  (* One rendering CPU per node: concurrent proxies' virtual sleeps
     would overlap (sleeping threads don't contend), so without this
     token an 8-node cluster would be no faster than one node. The
     check/set pair is atomic under cooperative scheduling — nothing
     yields between them. *)
  let busy = ref false in
  let rec render () =
    if !busy then begin
      Sys.usleep ((t.work_us / 4) + 50);
      render ()
    end
    else begin
      busy := true;
      Sys.usleep t.work_us;
      busy := false
    end
  in
  Distd.register a.n_dist ~service:"page" ~label:l1 ~clearance:l3
    (fun args ->
      (* args = "user target": render [target]'s page for [user]. The
         proxy runs at the balancer's translated label {c_user ⋆} —
         the app node honors the ⋆ because the balancer is trusted —
         and the owning shard clamps it back to taint, so the fetch
         below can only read [target = user]. *)
      t.served.(i) <- t.served.(i) + 1;
      render ();  (* modeled rendering cost, serial per node *)
      match String.split_on_char ' ' args with
      | [ user; target ] -> (
          (* Route the fetch by the *target*'s ring arc: records live
             where their category was minted (or moved). A draining
             arc refuses — never mis-routes. *)
          match Ring.route t.ring (user_key target) with
          | `No_members -> ("ERR no db shard", [])
          | `Handoff _ ->
              t.handoff_refused <- t.handoff_refused + 1;
              Metrics.Counter.incr m_handoff_refused;
              ("REFUSED handoff in progress", [])
          | `Node sid -> (
              match Distd.call a.n_dist ~node:sid ~service:"get" target with
              | Ok (secret, _) ->
                  (Printf.sprintf "<page user=%s>%s</page>" user secret, [])
              | Error (Distd.Refused m) -> ("REFUSED " ^ m, [])
              | Error (Distd.Remote m) -> ("DENIED " ^ m, [])
              | Error (Distd.Transport m) -> ("ERR db transport: " ^ m, [])))
      | _ -> ("ERR bad page args", []))

(* --- balancer: front demux, login, session cache, rotation --- *)

and pick_app t now =
  let n = Array.length t.apps in
  let rec scan tried =
    if tried >= n then None
    else
      let i = (t.rotation + tried) mod n in
      match
        Distd.Peer_health.usable t.health ~node:t.apps.(i).n_id ~now_ns:now
      with
      | `Yes | `Probe ->
          t.rotation <- (i + 1) mod n;
          Some i
      | `No -> scan (tried + 1)
  in
  scan 0

and call_page t ~user ~op =
  let args = user ^ " " ^ op in
  let attempts = (2 * Array.length t.apps) + 4 in
  let rec go n =
    if n <= 0 then "ERR no backend"
    else
      match pick_app t (Sys.clock_ns ()) with
      | None ->
          (* every node in backoff: wait a slice and rescan — an
             expired window turns into a probe *)
          Sys.usleep 50_000;
          go (n - 1)
      | Some i -> (
          let nid = t.apps.(i).n_id in
          match
            Distd.call t.balancer.n_dist ~node:nid ~service:"page" args
          with
          | Ok (page, _) ->
              Distd.Peer_health.ok t.health ~node:nid;
              page
          | Error (Distd.Transport _) ->
              Distd.Peer_health.failed t.health ~node:nid
                ~now_ns:(Sys.clock_ns ());
              Distd.pool_drop_all t.balancer.n_dist ~node:nid;
              t.failovers <- t.failovers + 1;
              Metrics.Counter.incr m_failovers;
              go (n - 1)
          | Error (Distd.Refused m) -> "REFUSED " ^ m
          | Error (Distd.Remote m) -> "DENIED " ^ m)
  in
  go attempts

(* Session tokens: "user|wire|pwhash|expiry" sealed under a key only
   the balancer holds. A hit re-acquires the user's ⋆ through the
   LOCAL grant gate (claim_grants on the cached wire name) — the
   label path is identical to the slow path; only the shard
   round-trip is elided. *)
and session_token t ~user ~wire ~pwh ~expiry =
  let plain = Printf.sprintf "%s|%Ld|%Ld|%d" user wire pwh expiry in
  Seal.seal_tagged t.session_seal
    ~nonce:(Checksum.fnv64 ("tok:" ^ user))
    plain

and session_check t ~user ~pass =
  match Hashtbl.find_opt t.sessions user with
  | None -> None
  | Some sealed -> (
      match
        Seal.unseal_tagged t.session_seal
          ~nonce:(Checksum.fnv64 ("tok:" ^ user))
          sealed
      with
      | None -> None
      | Some plain -> (
          match String.split_on_char '|' plain with
          | [ u; wire; pwh; expiry ] when u = user -> (
              try
                let wire = Int64.of_string wire in
                let pwh = Int64.of_string pwh in
                let expiry = int_of_string expiry in
                if Int64.equal pwh (pw_hash pass) && Sys.clock_ns () < expiry
                then Some wire
                else None
              with _ -> None)
          | _ -> None))

(* Authenticate [user]/[pass]; on success the calling thread owns the
   user's category. Refusal semantics: a user whose arc is draining
   or whose shard is down/backing-off is *refused* — never sent to a
   node that does not provably own the category. *)
and auth_user t ~user ~pass =
  match session_check t ~user ~pass with
  | Some wire ->
      Metrics.Counter.incr m_session_hits;
      ignore (Distd.claim_grants t.balancer.n_dist [ wire ] : Category.t list);
      `Ok
  | None -> (
      match Ring.route t.ring (user_key user) with
      | `No_members -> `Err "no db shard"
      | `Handoff _ ->
          t.handoff_refused <- t.handoff_refused + 1;
          Metrics.Counter.incr m_handoff_refused;
          `Refused "handoff in progress"
      | `Node sid -> (
          match
            Distd.Peer_health.usable t.health ~node:sid
              ~now_ns:(Sys.clock_ns ())
          with
          | `No -> `Err "shard down (backing off)"
          | `Yes | `Probe -> (
              match
                Distd.call t.balancer.n_dist ~node:sid ~service:"auth"
                  (user ^ " " ^ pass)
              with
              | Ok ("ok", grants) ->
                  Distd.Peer_health.ok t.health ~node:sid;
                  ignore
                    (Distd.claim_grants t.balancer.n_dist grants
                      : Category.t list);
                  (match grants with
                  | wire :: _ ->
                      Hashtbl.replace t.sessions user
                        (session_token t ~user ~wire ~pwh:(pw_hash pass)
                           ~expiry:(Sys.clock_ns () + (session_ttl_ms * 1_000_000)))
                  | [] -> ());
                  `Ok
              | Ok (_, _) ->
                  Distd.Peer_health.ok t.health ~node:sid;
                  `Denied
              | Error (Distd.Transport m) ->
                  Distd.Peer_health.failed t.health ~node:sid
                    ~now_ns:(Sys.clock_ns ());
                  Distd.pool_drop_all t.balancer.n_dist ~node:sid;
                  `Err ("transport: " ^ m)
              | Error (Distd.Refused m) -> `Err ("refused: " ^ m)
              | Error (Distd.Remote m) -> `Err ("remote: " ^ m))))

and handle_front t front_netd sock () =
  let root = Kernel.root t.balancer.n_kernel in
  (* The request line, or [None] if the stream ends first or the line
     runs past two frames: no split of a longer line fits both dist
     calls behind it. Each chunk is scanned once. *)
  let buf = Buffer.create 256 in
  let rec read_line () =
    match Netd.Client.recv front_netd ~return_container:root sock with
    | None -> None
    | Some d ->
        let n = String.length d in
        let i = Option.value (String.index_opt d '\n') ~default:n in
        Buffer.add_substring buf d 0 i;
        if Buffer.length buf > 2 * Wire.max_frame_len then None
        else if i < n then Some (Buffer.contents buf)
        else read_line ()
  in
  (match read_line () with
  | None -> ()
  | Some line ->
      Metrics.Counter.incr m_requests;
      let reply_sealed ~user ~password plain =
        let seal = Seal.create ~key:(session_key ~user ~password) in
        let nonce = Int64.of_int (Hashtbl.hash (user, plain)) in
        Netd.Client.send front_netd ~return_container:root sock
          (Wire.frame_raw ~nonce (Seal.seal_tagged seal ~nonce plain))
      in
      (match String.split_on_char ' ' line with
      | [ user; pass; op ] -> (
          match auth_user t ~user ~pass with
          | `Ok ->
              let page = call_page t ~user ~op in
              reply_sealed ~user ~password:pass page
          | `Denied -> reply_sealed ~user ~password:pass "ERR auth"
          | `Refused m ->
              reply_sealed ~user ~password:pass ("REFUSED " ^ m)
          | `Err m -> reply_sealed ~user ~password:pass ("ERR auth: " ^ m))
      | _ -> ()));
  Netd.Client.close front_netd ~return_container:root sock

and setup_balancer t =
  let b = t.balancer in
  let root = Kernel.root b.n_kernel in
  let front_netd =
    Netd.start b.n_kernel ~hub:t.front ~container:root
      ~ip:(Addr.ip_of_string "10.0.0.1") ~mac:"fe00" ()
  in
  ignore
    (Kernel.spawn b.n_kernel ~label:l1 ~clearance:l3 ~container:root
       ~name:"front-demux"
       (fun () ->
         Netd.Client.listen front_netd ~return_container:root front_port;
         let n = ref 0 in
         while true do
           let sock =
             Netd.Client.accept front_netd ~return_container:root front_port
           in
           incr n;
           ignore
             (Sys.thread_create ~container:root ~label:l1 ~clearance:l3
                ~quota:262144L
                ~name:(Printf.sprintf "front-worker-%d" !n)
                (handle_front t front_netd sock)
              : Types.oid)
         done))

(* --- rebalance: migrate one user's arc to a live shard --- *)

let rebalance_user t ~user ~to_shard =
  let key = user_key user in
  let dst = t.shards.(to_shard) in
  match Ring.owner t.ring key with
  | None -> Error "rebalance: no shard owns the user"
  | Some src_id when src_id = dst.sh_id ->
      Error "rebalance: target already owns the user"
  | Some src_id -> (
      match shard_by_id t src_id with
      | None -> Error "rebalance: unknown source shard"
      | Some src when not src.sh_alive -> Error "rebalance: source is dead"
      | Some _ when not dst.sh_alive -> Error "rebalance: target is dead"
      | Some src -> (
          match Hashtbl.find_opt src.sh_records user with
          | None -> Error "rebalance: user has no record"
          | Some (_, seg_oid, wire) -> (
              match Ring.begin_handoff t.ring ~key ~target:dst.sh_id with
              | Error m -> Error m
              | Ok () ->
                  (* Admission for this arc now refuses. Read the
                     record host-side from the live source: no thread
                     runs between rounds, so this is the segment as
                     the last round left it, and the source keeps
                     serving its other users meanwhile. *)
                  let data =
                    match Kernel.segment_data src.sh_node.n_kernel seg_oid with
                    | Some d -> d
                    | None -> failwith "rebalance: record missing at source"
                  in
                  (* The origin delegates: the target may now speak
                     for the wire name (out-of-band trust, §8). *)
                  Names.Directory.add_trust t.directory ~wire ~node:dst.sh_id;
                  let dst_done = ref false and src_done = ref false in
                  let dst_root = Kernel.root dst.sh_node.n_kernel in
                  let keeper =
                    Kernel.spawn dst.sh_node.n_kernel ~label:l1 ~clearance:l3
                      ~container:dst_root
                      ~name:(Printf.sprintf "db-keeper-in-%s" user)
                      (fun () ->
                        (* Import the twin and own it: claim through
                           the grant gate the import installs. *)
                        let cats =
                          Distd.claim_grants dst.sh_node.n_dist [ wire ]
                        in
                        let c = List.hd cats in
                        let seg =
                          Sys.segment_create ~container:dst_root
                            ~label:(Label.of_list [ (c, Level.L3) ] Level.L1)
                            ~quota:4096L ~len:(String.length data)
                            (Printf.sprintf "rec-%s" user)
                        in
                        Sys.segment_write (Types.centry dst_root seg) data;
                        Hashtbl.replace dst.sh_records user (c, seg, wire);
                        dst.sh_users <- dst.sh_users @ [ user ];
                        rewrite_index dst;
                        register_services t dst;
                        Sys.sync_all ();
                        dst_done := true;
                        park ())
                  in
                  dst.sh_keepers <- dst.sh_keepers @ [ (keeper, [ user ]) ];
                  ignore
                    (Kernel.spawn src.sh_node.n_kernel ~label:l1 ~clearance:l3
                       ~container:(Kernel.root src.sh_node.n_kernel)
                       ~name:(Printf.sprintf "rebalance-out-%s" user)
                       (fun () ->
                         Hashtbl.remove src.sh_records user;
                         src.sh_users <-
                           List.filter (fun u -> u <> user) src.sh_users;
                         src.sh_keepers <-
                           List.map
                             (fun (k, us) ->
                               (k, List.filter (fun u -> u <> user) us))
                             src.sh_keepers;
                         rewrite_index src;
                         register_services t src;
                         Sys.sync_all ();
                         src_done := true)
                     : Types.oid);
                  let finished =
                    Cluster.drive t.cluster
                      ~until:(fun () -> !dst_done && !src_done)
                      ()
                  in
                  if not finished then Error "rebalance: cluster stalled"
                  else begin
                    (* The user's session token still names the same
                       wire; drop it anyway so the next request
                       re-auths against the new owner (exercises the
                       moved path immediately). *)
                    Hashtbl.remove t.sessions user;
                    match Ring.commit_handoff t.ring ~key with
                    | Error m -> Error m
                    | Ok _ ->
                        Metrics.Counter.incr m_rebalances;
                        Ok ()
                  end)))

(* --- accessors --- *)

let cluster t = t.cluster
let front_hub t = t.front
let back_hub t = t.back
let balancer t = t.balancer.n_kernel
let app_mac t i = back_mac t.apps.(i).n_id
let balancer_clock t = t.balancer.n_clock
let users t = t.users
let secret_of t user = List.assoc user t.secrets
let served t = Array.copy t.served
let failovers t = t.failovers
let handoff_refusals t = t.handoff_refused
let ring t = t.ring
let shard_node_id t k = t.shards.(k).sh_id
let shard_alive t k = t.shards.(k).sh_alive
let shard_users t k = t.shards.(k).sh_users
let shard_store t k = t.shards.(k).sh_store

let shard_of_user t user =
  match Ring.owner t.ring (user_key user) with
  | None -> None
  | Some id -> (
      match shard_by_id t id with Some sh -> Some sh.sh_idx | None -> None)

let node_clocks t =
  (t.balancer.n_clock
  :: Array.to_list (Array.map (fun a -> a.n_clock) t.apps))
  @ Array.to_list (Array.map (fun sh -> sh.sh_node.n_clock) t.shards)
  @ [ t.edge_clock ]

(* --- client-side load driver --- *)

type outcome = { o_user : string; o_request : string; o_reply : string }

type slot = {
  s_host : Sim_host.t;
  mutable s_cur : (Stack.conn * int * Wire.reader) option;
      (* conn, request index, reassembly buffer *)
}

let run_load t ?(concurrency = 4) requests =
  Cluster.settle t.cluster;
  let total = Array.length requests in
  let results = Array.make total None in
  let next = ref 0 in
  let completed = ref 0 in
  let slots =
    Array.init (min concurrency (max total 1)) (fun i ->
        let h =
          Sim_host.create ~hub:t.front ~clock:t.edge_clock
            ~ip:(Printf.sprintf "10.0.0.%d" (10 + i))
            ~mac:(Printf.sprintf "cl%02d" i)
            ()
        in
        Cluster.add_host t.cluster ~stack:(Sim_host.stack h)
          ~clock:t.edge_clock;
        { s_host = h; s_cur = None })
  in
  let finish idx reply =
    results.(idx) <- Some reply;
    incr completed
  in
  let pump_slot s =
    match s.s_cur with
    | None ->
        if !next < total then begin
          let idx = !next in
          incr next;
          let user, pass, op = requests.(idx) in
          let conn =
            Stack.connect (Sim_host.stack s.s_host)
              ~dst:(Addr.v "10.0.0.1" front_port)
          in
          Stack.send conn (Printf.sprintf "%s %s %s\n" user pass op);
          s.s_cur <- Some (conn, idx, Wire.reader ())
        end
    | Some (conn, idx, r) -> (
        Wire.feed r (Stack.recv conn);
        match Wire.deframe r with
        | Wire.Frame (nonce, body) ->
            let user, pass, _ = requests.(idx) in
            let seal = Seal.create ~key:(session_key ~user ~password:pass) in
            let reply =
              match Seal.unseal_tagged seal ~nonce body with
              | Some plain -> plain
              | None -> "ERR bad seal"
            in
            Stack.close conn;
            s.s_cur <- None;
            finish idx reply
        | Wire.Bad_length _ ->
            Stack.close conn;
            s.s_cur <- None;
            finish idx "ERR bad frame"
        | Wire.Partial ->
            if Stack.state conn = Stack.Closed then begin
              s.s_cur <- None;
              finish idx
                (match Stack.error conn with
                | Some e -> "ERR transport: " ^ e
                | None -> "ERR connection closed")
            end)
  in
  let pump () =
    Array.iter pump_slot slots;
    !completed >= total
  in
  let finished = Cluster.drive t.cluster ~until:pump () in
  (* The next wave brings its own hosts (same MACs and IPs); retire
     this wave's so the cluster's idle rounds do not keep visiting
     them. *)
  Array.iter
    (fun s -> Cluster.remove_host t.cluster (Sim_host.stack s.s_host))
    slots;
  let outcomes =
    Array.mapi
      (fun i r ->
        let user, _, op = requests.(i) in
        {
          o_user = user;
          o_request = op;
          o_reply = (match r with Some s -> s | None -> "ERR incomplete");
        })
      results
  in
  (finished, outcomes)

(* Makespan across every clock in the system, relative to a baseline
   snapshot taken with [clock_snapshot]. *)
let clock_snapshot t =
  List.map (fun c -> Int64.of_int (Sim_clock.now c)) (node_clocks t)

let elapsed_since t snap =
  Int64.of_int
    (List.fold_left2
       (fun acc c t0 -> Int.max acc (Sim_clock.now c - Int64.to_int t0))
       0 (node_clocks t) snap)
