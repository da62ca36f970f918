(* Deterministic benchmark runner: executes the §7 workloads under a
   fixed seed, snapshots the global metrics registry around each one,
   and emits a schema-versioned JSON trajectory (BENCH_*.json).

   Determinism contract: every workload runs on the virtual clock with
   fixed RNG seeds, so [virtual_ns] and every counter delta are
   bit-identical across runs on the same build. Only [wall_ms] (host
   wall-clock, informational) varies; consumers comparing trajectories
   must strip it. *)

open Harness
module Metrics = Histar_metrics.Metrics
module Json = Histar_metrics.Json
module Hub = Histar_net.Hub
module Addr = Histar_net.Addr
module Sim_host = Histar_net.Sim_host
module Netd = Histar_net.Netd
module Stack = Histar_net.Stack
module Faults = Histar_faults.Faults
open Histar_label

let schema_version = 1

(* Counters every workload entry must carry, even when zero: the
   trajectory's stable spine. Everything else rides along as nonzero
   deltas. *)
let required_counters =
  [
    "kernel.syscalls";
    "label.checks";
    "label.elided";
    "disk.media_sector_writes";
    "wal.commits";
  ]

type size = Smoke | Full

let size_to_string = function Smoke -> "smoke" | Full -> "full"
let pick size ~smoke ~full = match size with Smoke -> smoke | Full -> full

(* ---------- workloads ----------

   Each builds a fresh machine from the fixed default seed so state
   never leaks between entries. The §7 workloads shared with the
   figure modules take explicit counts and return their measured
   {!Harness.phase}; the rest take a [size] and return virtual ns. *)

let ipc_pingpong ~rtts =
  let m = mk_machine () in
  boot m (fun _fs proc ->
      let r1, w1 = Process.pipe proc in
      let r2, w2 = Process.pipe proc in
      let _echo =
        Process.spawn proc ~name:"echo" ~fds:[ r1; w2 ] (fun child ->
            let rec loop () =
              let msg = Process.read child r1 8 in
              if String.length msg > 0 then begin
                ignore (Process.write child w2 msg);
                loop ()
              end
            in
            loop ();
            Process.close child w2)
      in
      ignore (Process.write proc w1 "warmup!!");
      ignore (Process.read proc r2 8);
      let phase =
        measure m (fun () ->
            for _ = 1 to rtts do
              ignore (Process.write proc w1 "8bytemsg");
              ignore (Process.read proc r2 8)
            done)
      in
      Process.close proc w1;
      phase)

(* One create-run-exit-wait cycle of a /bin/true equivalent per
   iteration. The launching shell holds stdin/stdout/stderr, which the
   child inherits: fork must copy their descriptor state, spawn only
   links it. *)
let proc_cycle ~use_spawn ~iters =
  let m = mk_machine () in
  boot m (fun fs proc ->
      ignore (Fs.mkdir fs "/bin");
      Fs.write_file fs "/bin/true" "#!true";
      Fs.write_file fs "/dev-console" "";
      let fds = List.init 3 (fun _ -> Process.open_file proc "/dev-console") in
      let one () =
        let h =
          if use_spawn then
            Process.spawn proc ~name:"true" ~fds (fun c -> Process.exit c 0)
          else
            Process.fork_exec proc ~name:"true" ~text:"/bin/true" ~fds (fun c ->
                Process.exit c 0)
        in
        ignore (Process.wait proc h)
      in
      one () (* warmup *);
      measure m (fun () ->
          for _ = 1 to iters do
            one ()
          done))

let lfs_content = String.make 1024 'd'
let lfs_path i = Printf.sprintf "/lfs/f%05d" i

let lfs_create ~mode ~files =
  let m = mk_machine () in
  boot m (fun fs _proc ->
      ignore (Fs.mkdir fs "/lfs");
      measure m (fun () ->
          for i = 0 to files - 1 do
            let p = lfs_path i in
            Fs.write_file fs p lfs_content;
            match mode with `Sync -> Fs.fsync fs p | `Async | `Group -> ()
          done;
          match mode with `Group -> Sys.sync_all () | `Async | `Sync -> ()))

(* The large-file benchmark's two write phases on one booted machine:
   [mb] MB written sequentially in 8 KB chunks and fsynced, then
   [writes] random synchronous 8 KB writes, each flushed in place. *)
let large_chunk = 8192
let large_data = String.make large_chunk 'L'

let large_file_prefill m fs proc ~mb =
  let bytes = mb * 1024 * 1024 in
  ignore (Fs.mkdir fs "/big");
  ignore (Fs.create fs "/big/file");
  Fs.reserve fs "/big/file" (bytes + 65536);
  let fd = Process.open_file proc "/big/file" in
  measure m (fun () ->
      for _ = 1 to bytes / large_chunk do
        ignore (Process.write proc fd large_data)
      done;
      Process.close proc fd;
      Fs.fsync fs "/big/file")

let large_file_writes m fs proc ~mb ~writes =
  let bytes = mb * 1024 * 1024 in
  let rng = Histar_util.Rng.create 7L in
  measure m (fun () ->
      for _ = 1 to writes do
        let off = Histar_util.Rng.int rng (bytes - large_chunk) in
        let fd = Process.open_file proc "/big/file" in
        Process.seek proc fd off;
        ignore (Process.write proc fd large_data);
        Process.close proc fd;
        Fs.fsync_range fs "/big/file" ~off ~len:large_chunk
      done)

let large_file_rand ~mb ~writes =
  let m = mk_machine () in
  boot m (fun fs proc ->
      ignore (large_file_prefill m fs proc ~mb);
      Sys.sync_all ();
      large_file_writes m fs proc ~mb ~writes)

(* A tainted wget client fetching [bytes] through netd; the phase runs
   from the client's first call to its last byte. *)
let wget ~bytes =
  let m = mk_machine () in
  let hub = Hub.create ~clock:m.clock () in
  let server =
    Sim_host.create ~hub ~clock:m.clock ~ip:"10.0.0.2" ~mac:"www" ()
  in
  Sim_host.serve_file server ~port:80 ~content:(String.make bytes 'w');
  let got = ref 0 in
  let phase = ref None in
  let _tid =
    Kernel.spawn m.kernel ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root m.kernel) ~label:l1 in
        let proc =
          Process.boot ~fs ~container:(Kernel.root m.kernel) ~name:"init" ()
        in
        let i = Sys.cat_create () in
        let netd =
          Netd.start m.kernel ~hub ~container:(Kernel.root m.kernel)
            ~ip:(Addr.ip_of_string "10.0.0.1") ~mac:"km" ~taint:i ()
        in
        let scratch =
          Sys.container_create
            ~container:(Process.container proc)
            ~label:(Label.of_list [ (i, Level.L2) ] Level.L1)
            ~quota:2_097_152L "wget scratch"
        in
        let _wget =
          Process.spawn proc ~name:"wget"
            ~extra_label:[ (i, Level.L2) ]
            ~extra_clearance:[ (i, Level.L2) ]
            (fun _w ->
              let p =
                measure m (fun () ->
                    let sock =
                      Netd.Client.connect netd ~return_container:scratch
                        (Addr.v "10.0.0.2" 80)
                    in
                    Netd.Client.send netd ~return_container:scratch sock
                      "GET /big";
                    let rec loop () =
                      match
                        Netd.Client.recv netd ~return_container:scratch sock
                      with
                      | Some d ->
                          got := !got + String.length d;
                          if !got < bytes then loop ()
                      | None -> ()
                    in
                    loop ())
              in
              phase := Some p)
        in
        ())
  in
  Kernel.run m.kernel;
  match !phase with
  | None -> failwith "wget: transfer did not complete"
  | Some _ when !got < bytes ->
      failwith (Printf.sprintf "wget: got %d of %d bytes" !got bytes)
  | Some p -> p

(* The same transfer under a fixed fault schedule: 5% frame loss on
   the wire plus 1% latent sector errors under the store. The client
   retries at connection and request level, the fetched page is
   persisted through the WAL, and the store is scrubbed back to clean
   afterwards — so the entry's virtual time prices the whole graceful
   degradation path (retransmissions, read retries, repair I/O). *)
let faulty_schedule =
  Faults.Schedule.mk ~seed:0xFA0175BEEFL
    ~disk:
      {
        Faults.Schedule.latent_rate = 0.01;
        transient_rate = 0.0;
        corrupt_rate = 0.0;
      }
    ~net:
      {
        Faults.Schedule.default_net with
        Faults.Schedule.loss_rate = 0.05;
        corrupt_rate = 0.0;
        duplicate_rate = 0.0;
        reorder_rate = 0.0;
        jitter_us = 0;
      }
    ()

let wget_faulty size =
  let bytes = pick size ~smoke:(32 * 1024) ~full:(1024 * 1024) in
  let m = mk_machine ?faults:(Faults.Disk_faults.create faulty_schedule) () in
  let hub =
    Hub.create
      ?faults:(Faults.Net_faults.create faulty_schedule)
      ~clock:m.clock ()
  in
  let server =
    Sim_host.create ~hub ~clock:m.clock ~ip:"10.0.0.2" ~mac:"www" ()
  in
  let content = String.make bytes 'w' in
  Sim_host.serve_file server ~port:80 ~content;
  let page = ref "" in
  let elapsed = ref (-1) in
  let _tid =
    Kernel.spawn m.kernel ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root m.kernel) ~label:l1 in
        let proc =
          Process.boot ~fs ~container:(Kernel.root m.kernel) ~name:"init" ()
        in
        let i = Sys.cat_create () in
        let netd =
          Netd.start m.kernel ~hub ~container:(Kernel.root m.kernel)
            ~ip:(Addr.ip_of_string "10.0.0.1") ~mac:"km" ~taint:i ()
        in
        let scratch =
          Sys.container_create
            ~container:(Process.container proc)
            ~label:(Label.of_list [ (i, Level.L2) ] Level.L1)
            ~quota:2_097_152L "wget-faulty scratch"
        in
        let t0 = Clock.now m.clock in
        let client =
          Process.spawn proc ~name:"wget"
            ~extra_label:[ (i, Level.L2) ]
            ~extra_clearance:[ (i, Level.L2) ]
            (fun _w ->
              let attempt () =
                let sock =
                  Netd.Client.connect_retry netd ~return_container:scratch
                    (Addr.v "10.0.0.2" 80)
                in
                let buf = Buffer.create bytes in
                Netd.Client.send netd ~return_container:scratch sock
                  "GET /big";
                let rec loop () =
                  match
                    Netd.Client.recv netd ~return_container:scratch sock
                  with
                  | Some d ->
                      Buffer.add_string buf d;
                      loop ()
                  | None -> ()
                in
                loop ();
                Netd.Client.close netd ~return_container:scratch sock;
                Buffer.contents buf
              in
              let rec go n =
                match attempt () with
                | p -> page := p
                | exception Netd.Client.Netd_error _ when n > 1 -> go (n - 1)
              in
              go 3)
        in
        ignore (Process.wait proc client);
        (* Persist the page through the WAL on the faulty disk. *)
        ignore (Fs.mkdir fs "/srv");
        Fs.write_file fs "/srv/page" !page;
        Fs.fsync fs "/srv/page";
        Sys.sync_all ();
        elapsed := Clock.now m.clock - t0)
  in
  (* Frames can be lost with the kernel idle, leaving only the external
     server's RTO armed; advance the clock to it and tick its stack
     whenever [Kernel.run] drains without finishing the workload. *)
  let rec drive n =
    Kernel.run m.kernel;
    if !elapsed < 0 then begin
      if n <= 0 then failwith "wget-faulty: simulation stalled";
      match Stack.next_timer_deadline (Sim_host.stack server) with
      | Some d ->
          let now = Clock.now m.clock in
          if d > now then Clock.advance m.clock (d - now);
          Stack.tick (Sim_host.stack server);
          drive (n - 1)
      | None -> failwith "wget-faulty: stalled with no armed server timer"
    end
  in
  drive 100_000;
  if not (String.equal !page content) then
    failwith
      (Printf.sprintf "wget-faulty: got %d bytes, expected %d, payload %s"
         (String.length !page) bytes
         (if String.length !page = bytes then "corrupt" else "truncated"));
  (* Repair the store back to clean; latent sectors struck during the
     run must be recoverable without losing any object. *)
  let scrub = Store.scrub m.store in
  if not scrub.Store.clean then
    failwith "wget-faulty: scrub did not converge";
  if scrub.Store.lost <> [] then
    failwith "wget-faulty: scrub lost objects";
  Store.fsck m.store;
  !elapsed

(* Multi-node scale-out: the lib/apps web cluster driven end-to-end
   over lib/dist, measured as the makespan of a fixed request batch.
   One entry per node count gives the scale trajectory (requests/sec
   vs nodes) as consecutive cells of the same committed run; the
   dist-smoke CI job checks the 1→4 cells actually speed up. *)
let dist_cluster ?(user_count = 2) ?(concurrency = 8) ?(zipf = false) ~nodes
    size =
  let module Webcluster = Histar_apps.Webcluster in
  let module Rng = Histar_util.Rng in
  let requests = pick size ~smoke:12 ~full:120 in
  let wc = Webcluster.build ~app_nodes:nodes ~user_count ~work_us:5_000 () in
  let users = Webcluster.users wc in
  (* Request mix: round-robin for the small cells, zipfian (weight
     1/rank over the user population, fixed seed) for the big one —
     a skewed popular-user mix is what makes the session-token cache
     and per-connection admission memos earn their keep, and it
     concentrates load on a few shards the way real traffic would. *)
  let pick_user =
    if not zipf then fun i -> users.(i mod Array.length users)
    else begin
      let n = Array.length users in
      let weights = Array.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
      let total = Array.fold_left ( +. ) 0.0 weights in
      let rng = Rng.create 0x7a69706621L in
      fun _ ->
        let x = float_of_int (Rng.int rng 1_000_000) /. 1e6 *. total in
        let rec scan r acc =
          if r >= n - 1 then r
          else
            let acc = acc +. weights.(r) in
            if x < acc then r else scan (r + 1) acc
        in
        users.(scan 0 0.0)
    end
  in
  let batch =
    Array.init requests (fun i ->
        let u, p = pick_user i in
        (u, p, u))
  in
  let t0 = Webcluster.clock_snapshot wc in
  let finished, outcomes = Webcluster.run_load wc ~concurrency batch in
  if not finished then
    failwith (Printf.sprintf "dist-cluster-%d: load did not complete" nodes);
  Array.iter
    (fun o ->
      let secret = Webcluster.secret_of wc o.Webcluster.o_user in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        nn = 0 || go 0
      in
      if not (contains o.Webcluster.o_reply secret) then
        failwith
          (Printf.sprintf "dist-cluster-%d: %s did not get their record"
             nodes o.Webcluster.o_user))
    outcomes;
  Int64.to_int (Webcluster.elapsed_since wc t0)

(* The LIO floating-label layer priced end to end: one service thread
   serving a fixed mix of tenant evaluations, each a [to_labeled]
   block (one-shot gate create + call + reap) plus a laundering outbox
   excursion (§3.5 ⋆-drop on the scope's return). Every fifth request
   is a cross-tenant peek the kernel denies inside the block, so the
   entry prices the denial path too; the service label must come back
   clean or the workload fails. *)
let lio_eval size =
  let module Lio_eval = Histar_apps.Lio_eval in
  let requests = pick size ~smoke:40 ~full:1_000 in
  let tenants = [| "alice"; "bob"; "carol"; "dave" |] in
  let n = Array.length tenants in
  let m = mk_machine () in
  let elapsed = ref (-1) in
  let _tid =
    Kernel.spawn m.kernel ~name:"lio-eval" (fun () ->
        let t =
          Lio_eval.create ~container:(Kernel.root m.kernel)
            (Array.to_list tenants)
        in
        Array.iteri
          (fun i name -> Lio_eval.set_var t ~tenant:name "x" (i + 1))
          tenants;
        let denials = ref 0 in
        let (), ns =
          timed m.clock (fun () ->
              for i = 0 to requests - 1 do
                let name = tenants.(i mod n) in
                let e =
                  if i mod 5 = 4 then begin
                    incr denials;
                    Lio_eval.Peek (tenants.((i + 1) mod n), "x")
                  end
                  else Lio_eval.Add (Lio_eval.Var "x", Lio_eval.Lit i)
                in
                ignore (Lio_eval.eval t ~tenant:name e)
              done)
        in
        if Lio_eval.served t <> requests - !denials then
          failwith "lio-eval: served count off";
        if Lio_eval.denied t <> !denials then
          failwith "lio-eval: denied count off";
        if not (Lio_eval.clean t) then
          failwith "lio-eval: service label not clean after the batch";
        elapsed := ns)
  in
  Kernel.run m.kernel;
  if !elapsed < 0 then failwith "lio-eval: batch did not complete";
  !elapsed

let workloads =
  [
    ("ipc-pingpong", "pipe round trips through the gate IPC path",
     fun size -> (ipc_pingpong ~rtts:(pick size ~smoke:50 ~full:2_000)).ns);
    ("fork-exec", "fork/exec/exit/wait of a /bin/true equivalent",
     fun size ->
       (proc_cycle ~use_spawn:false ~iters:(pick size ~smoke:3 ~full:30)).ns);
    ("spawn", "spawn/exit/wait of a /bin/true equivalent",
     fun size ->
       (proc_cycle ~use_spawn:true ~iters:(pick size ~smoke:3 ~full:30)).ns);
    ("lfs-create-sync", "small-file create with per-file fsync (WAL path)",
     fun size ->
       (lfs_create ~mode:`Sync ~files:(pick size ~smoke:5 ~full:100)).ns);
    ("lfs-create-group", "small-file create with one group sync (checkpoint)",
     fun size ->
       (lfs_create ~mode:`Group ~files:(pick size ~smoke:20 ~full:800)).ns);
    ("large-file-rand", "random synchronous in-place writes to a large file",
     fun size ->
       (large_file_rand ~mb:(pick size ~smoke:1 ~full:8)
          ~writes:(pick size ~smoke:10 ~full:400))
         .ns);
    ("wget", "HTTP transfer through netd with a tainted client",
     fun size ->
       (wget ~bytes:(pick size ~smoke:(64 * 1024) ~full:(4 * 1024 * 1024))).ns);
    ("wget-faulty",
     "HTTP transfer under 5% loss + 1% latent sector errors, with scrub",
     wget_faulty);
    ("dist-cluster-1", "web cluster request batch over 1 app node",
     fun size -> dist_cluster ~nodes:1 size);
    ("dist-cluster-2", "web cluster request batch over 2 app nodes",
     fun size -> dist_cluster ~nodes:2 size);
    ("dist-cluster-4", "web cluster request batch over 4 app nodes",
     fun size -> dist_cluster ~nodes:4 size);
    ("dist-cluster-8", "web cluster request batch over 8 app nodes",
     fun size -> dist_cluster ~nodes:8 size);
    ("dist-cluster-16",
     "web cluster request batch over 16 app nodes, zipfian over 8 users",
     fun size ->
       dist_cluster ~nodes:16 ~user_count:8 ~concurrency:16 ~zipf:true size);
    ("lio-eval",
     "multi-tenant LIO evaluator: to_labeled blocks + laundered outbox scopes",
     lio_eval);
  ]

let workload_names = List.map (fun (n, _, _) -> n) workloads

(* ---------- running ---------- *)

exception Workload_failed of string * exn

type entry = {
  e_name : string;
  e_descr : string;
  e_wall_ms : float;
  e_virtual_ns : int;
  e_counters : (string * int) list;
}

let run_one size (name, descr, f) =
  let before = Metrics.snapshot () in
  let w0 = Unix.gettimeofday () in
  let virtual_ns =
    try f size with e -> raise (Workload_failed (name, e))
  in
  let wall_ms = (Unix.gettimeofday () -. w0) *. 1e3 in
  let after = Metrics.snapshot () in
  let delta = Metrics.diff ~before ~after in
  (* The required spine is always present; other deltas ride along. *)
  let spine =
    List.map
      (fun k -> (k, Metrics.value_in after k - Metrics.value_in before k))
      required_counters
  in
  let extras = List.filter (fun (k, _) -> not (List.mem k required_counters)) delta in
  {
    e_name = name;
    e_descr = descr;
    e_wall_ms = wall_ms;
    e_virtual_ns = virtual_ns;
    e_counters = spine @ extras;
  }

let run_suite ~size () =
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset ();
  let entries =
    Fun.protect
      ~finally:(fun () -> Metrics.set_enabled was_enabled)
      (fun () -> List.map (run_one size) workloads)
  in
  let total_virtual =
    List.fold_left (fun a e -> a + e.e_virtual_ns) 0 entries
  in
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("suite", Json.Str "histar-bench");
      ("size", Json.Str (size_to_string size));
      ("seed", Json.Str "default (0x4853746172217221)");
      ( "workloads",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [
                   ("name", Json.Str e.e_name);
                   ("descr", Json.Str e.e_descr);
                   ("wall_ms", Json.Float e.e_wall_ms);
                   ("virtual_ns", Json.Int e.e_virtual_ns);
                   ( "counters",
                     Json.Obj
                       (List.map (fun (k, v) -> (k, Json.Int v)) e.e_counters)
                   );
                 ])
             entries) );
      ("total_virtual_ns", Json.Int total_virtual);
    ]

(* ---------- schema validation ---------- *)

let validate json =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let* () =
    match Json.member "schema_version" json with
    | Some (Json.Int v) when v = schema_version -> Ok ()
    | Some (Json.Int v) -> err "schema_version %d, expected %d" v schema_version
    | Some _ | None -> err "missing integer schema_version"
  in
  let* () =
    match Json.member "suite" json with
    | Some (Json.Str "histar-bench") -> Ok ()
    | _ -> err "suite is not \"histar-bench\""
  in
  let* () =
    match Json.member "size" json with
    | Some (Json.Str ("smoke" | "full")) -> Ok ()
    | _ -> err "size is not smoke|full"
  in
  let* ws =
    match Json.member "workloads" json with
    | Some (Json.List (_ :: _ as ws)) -> Ok ws
    | Some (Json.List []) -> err "workloads is empty"
    | _ -> err "missing workloads array"
  in
  (* The trajectory must cover every workload the current runner
     knows, so a stale baseline fails CI when a workload is added. *)
  let present =
    List.filter_map
      (fun w ->
        match Json.member "name" w with
        | Some (Json.Str n) -> Some n
        | _ -> None)
      ws
  in
  let* () =
    List.fold_left
      (fun acc n ->
        let* () = acc in
        if List.mem n present then Ok ()
        else err "trajectory is missing workload %s" n)
      (Ok ()) workload_names
  in
  List.fold_left
    (fun acc w ->
      let* () = acc in
      let* name =
        match Json.member "name" w with
        | Some (Json.Str n) -> Ok n
        | _ -> err "workload without a name"
      in
      let* () =
        match Json.member "wall_ms" w with
        | Some (Json.Float _ | Json.Int _) -> Ok ()
        | _ -> err "%s: missing wall_ms" name
      in
      let* () =
        match Json.member "virtual_ns" w with
        | Some (Json.Int v) when v >= 0 -> Ok ()
        | _ -> err "%s: missing non-negative virtual_ns" name
      in
      let* counters =
        match Json.member "counters" w with
        | Some (Json.Obj _ as c) -> Ok c
        | _ -> err "%s: missing counters object" name
      in
      List.fold_left
        (fun acc k ->
          let* () = acc in
          match Json.member k counters with
          | Some (Json.Int v) when v >= 0 -> Ok ()
          | Some (Json.Int _) -> err "%s: counter %s is negative" name k
          | _ -> err "%s: missing required counter %s" name k)
        (Ok ()) required_counters)
    (Ok ()) ws

(* ---------- IO ---------- *)

let write_file ~path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~indent:2 json);
      output_char oc '\n')

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> Json.of_string (really_input_string ic (in_channel_length ic)))

(* Strip the nondeterministic wall-clock fields, for trajectory
   comparison. *)
let rec strip_wall = function
  | Json.Obj fields ->
      Json.Obj
        (List.filter_map
           (fun (k, v) ->
             if String.equal k "wall_ms" then None else Some (k, strip_wall v))
           fields)
  | Json.List xs -> Json.List (List.map strip_wall xs)
  | (Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.Str _) as v ->
      v
