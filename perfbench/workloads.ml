(* The four workloads. Each builds its system from scratch (the pass's
   set-up), warms it up, then runs [n] ops through the meter. Inputs —
   message bytes, file contents, offsets, the read/write interleave,
   the served page and the zipf picks — come from the seed alone; the
   library only ever sees the generated values. *)

module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Clock = Histar_util.Sim_clock
module Rng = Histar_util.Rng
module Disk = Histar_disk.Disk
module Store = Histar_store.Store
module Fs = Histar_unix.Fs
module Process = Histar_unix.Process
module Hub = Histar_net.Hub
module Addr = Histar_net.Addr
module Sim_host = Histar_net.Sim_host
module Netd = Histar_net.Netd
module Webcluster = Histar_apps.Webcluster
module Cluster = Histar_dist.Cluster
open Histar_label

let sp = Tracer.intern
let s_machine = sp "setup.machine"
let s_prefill = sp "setup.prefill"
let s_netd = sp "setup.netd"
let s_cluster = sp "setup.cluster"
let s_read = sp "unixlib.read"
let s_write = sp "unixlib.write"
let s_fsync = sp "unixlib.fsync_range"
let s_connect = sp "netd.connect"
let s_send = sp "netd.send"
let s_recv = sp "netd.recv"
let s_close = sp "netd.close"
let s_run_load = sp "webcluster.run_load"

type machine = { kernel : Kernel.t; clock : Clock.t; store : Store.t }

(* A disk-backed machine with the same syscall cost the bench runner
   calibrates against the paper's IPC numbers. *)
let machine () =
  Tracer.span s_machine (fun () ->
      let clock = Clock.create () in
      let disk = Disk.create ~clock () in
      let store = Store.format ~disk ~wal_sectors:262_144 () in
      let kernel = Kernel.create ~clock ~store ~syscall_cost_ns:120 () in
      { kernel; clock; store })

let l1 = Label.make Level.L1

let since clock =
  let v0 = Clock.now_ns clock in
  fun () -> Int64.sub (Clock.now_ns clock) v0

(* Run [f] as init with a file system and a boot process. *)
let boot m meter f =
  Meter.attach_probe meter [ m.kernel ];
  let _tid =
    Kernel.spawn m.kernel ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root m.kernel) ~label:l1 in
        let proc =
          Process.boot ~fs ~container:(Kernel.root m.kernel) ~name:"init" ()
        in
        f fs proc)
  in
  Kernel.run m.kernel;
  Meter.detach_probe meter [ m.kernel ]

let label_entries m =
  match Kernel.thread_label m.kernel (Sys.self_id ()) with
  | Some l -> List.length (Label.entries l)
  | None -> 0

(* ---------- ipc-pingpong ---------- *)

let ipc_pingpong ~seed meter =
  let n = meter.Meter.n in
  let rng = Rng.create seed in
  let msgs = Array.init n (fun _ -> Rng.bytes rng 8) in
  let m = machine () in
  boot m meter (fun _fs proc ->
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
      for _ = 1 to 200 do
        ignore (Process.write proc w1 "warmup!!");
        ignore (Process.read proc r2 8)
      done;
      Meter.begin_phase meter ~elapsed:(since m.clock) ~profiles:(fun () ->
          [ Kernel.profile m.kernel ]);
      for i = 0 to n - 1 do
        Meter.op meter i
          (fun () ->
            let s = Tracer.enter s_write in
            ignore (Process.write proc w1 msgs.(i));
            Tracer.exit s;
            let s = Tracer.enter s_read in
            let echo = Process.read proc r2 8 in
            Tracer.exit s;
            echo)
          (fun echo -> String.equal echo msgs.(i))
      done;
      Meter.end_phase meter;
      meter.Meter.label_entries <- label_entries m;
      Process.close proc w1)

(* ---------- large-file-rand ---------- *)

let file_bytes = 512 * 1024
let chunk = 8192
let path = "/big/file"

(* One descriptor stays open for the whole pass: an open/close per op
   mints two categories each time and the per-op cost then grows with
   run length. Three reads per synchronous write, in a seeded order
   inside every group of four ops. *)
let large_file_rand ~seed meter =
  let n = meter.Meter.n in
  let rng = Rng.create seed in
  let initial = Rng.bytes rng file_bytes in
  let offset () = Rng.int rng (((file_bytes - chunk) / 512) + 1) * 512 in
  let writes = Array.make n None in
  let offsets = Array.make n 0 in
  for g = 0 to (n / 4) - 1 do
    let w = Rng.int rng 4 in
    for j = 0 to 3 do
      let i = (4 * g) + j in
      offsets.(i) <- offset ();
      if j = w then writes.(i) <- Some (Rng.bytes rng chunk)
    done
  done;
  let shadow = Bytes.of_string initial in
  let m = machine () in
  let user_bytes = ref 0 in
  boot m meter (fun fs proc ->
      let fd =
        Tracer.span s_prefill (fun () ->
            ignore (Fs.mkdir fs "/big");
            ignore (Fs.create fs path);
            Fs.reserve fs path (file_bytes + 65536);
            let fd = Process.open_file proc path in
            for c = 0 to (file_bytes / chunk) - 1 do
              ignore (Process.write proc fd (String.sub initial (c * chunk) chunk))
            done;
            Fs.fsync fs path;
            Sys.sync_all ();
            fd)
      in
      let read off =
        let s = Tracer.enter s_read in
        Process.seek proc fd off;
        let d = Process.read proc fd chunk in
        Tracer.exit s;
        d
      in
      for i = 0 to 63 do
        ignore (read offsets.(i mod n))
      done;
      Meter.begin_phase meter ~elapsed:(since m.clock) ~profiles:(fun () ->
          [ Kernel.profile m.kernel ]);
      for i = 0 to n - 1 do
        let off = offsets.(i) in
        match writes.(i) with
        | None ->
            Meter.op meter i
              (fun () -> read off)
              (fun d ->
                String.length d = chunk
                &&
                let rec eq k =
                  k = chunk
                  || (String.unsafe_get d k = Bytes.unsafe_get shadow (off + k)
                     && eq (k + 1))
                in
                eq 0)
        | Some data ->
            Meter.op meter i
              (fun () ->
                let s = Tracer.enter s_write in
                Process.seek proc fd off;
                let w = Process.write proc fd data in
                Tracer.exit s;
                let s = Tracer.enter s_fsync in
                Fs.fsync_range fs path ~off ~len:chunk;
                Tracer.exit s;
                w)
              (fun w ->
                Bytes.blit_string data 0 shadow off chunk;
                user_bytes := !user_bytes + chunk;
                w = chunk)
      done;
      Meter.end_phase meter;
      meter.Meter.label_entries <- label_entries m;
      Process.close proc fd);
  Meter.check_pass meter (fun () ->
      Store.fsck m.store;
      true);
  meter.Meter.extra <- [ ("user_bytes", float_of_int !user_bytes) ]

(* ---------- wget ---------- *)

let page_bytes = 256 * 1024

let wget ~seed meter =
  let n = meter.Meter.n in
  let rng = Rng.create seed in
  let page = Rng.bytes rng page_bytes in
  let m = machine () in
  let hub =
    Tracer.span s_netd (fun () ->
        let hub = Hub.create ~clock:m.clock () in
        let server =
          Sim_host.create ~hub ~clock:m.clock ~ip:"10.0.0.2" ~mac:"www" ()
        in
        Sim_host.serve_file server ~port:80 ~content:page;
        hub)
  in
  let recv_calls = ref 0 in
  let fetched = ref 0 in
  boot m meter (fun _fs proc ->
      let i = Sys.cat_create () in
      let netd =
        Tracer.span s_netd (fun () ->
            Netd.start m.kernel ~hub ~container:(Kernel.root m.kernel)
              ~ip:(Addr.ip_of_string "10.0.0.1") ~mac:"km" ~taint:i ())
      in
      let rc =
        Sys.container_create
          ~container:(Process.container proc)
          ~label:(Label.of_list [ (i, Level.L2) ] Level.L1)
          ~quota:2_097_152L "wget scratch"
      in
      let fetch () =
        let s = Tracer.enter s_connect in
        let sock =
          Netd.Client.connect netd ~return_container:rc (Addr.v "10.0.0.2" 80)
        in
        Tracer.exit s;
        let s = Tracer.enter s_send in
        Netd.Client.send netd ~return_container:rc sock "GET /page";
        Tracer.exit s;
        let rec loop acc =
          let s = Tracer.enter s_recv in
          let r = Netd.Client.recv netd ~return_container:rc sock in
          Tracer.exit s;
          incr recv_calls;
          match r with Some d -> loop (d :: acc) | None -> acc
        in
        let chunks = loop [] in
        let s = Tracer.enter s_close in
        Netd.Client.close netd ~return_container:rc sock;
        Tracer.exit s;
        chunks
      in
      ignore
        (Process.spawn proc ~name:"wget"
           ~extra_label:[ (i, Level.L2) ]
           ~extra_clearance:[ (i, Level.L2) ]
           (fun _w ->
             for _ = 1 to 2 do
               ignore (fetch ())
             done;
             recv_calls := 0;
             Meter.begin_phase meter ~elapsed:(since m.clock) ~profiles:(fun () ->
                 [ Kernel.profile m.kernel ]);
             for k = 0 to n - 1 do
               Meter.op meter k fetch (fun chunks ->
                   let got = String.concat "" (List.rev chunks) in
                   fetched := !fetched + String.length got;
                   String.equal got page)
             done;
             Meter.end_phase meter;
             meter.Meter.label_entries <- label_entries m)));
  meter.Meter.extra <-
    [
      ("recv_calls", float_of_int !recv_calls);
      ("payload_bytes", float_of_int !fetched);
    ]

(* ---------- dist-cluster-16 ---------- *)

let app_nodes = 16
let users = 8
let wave = 16

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  nn = 0 || go 0

(* Zipfian picks (weight 1/rank) over the user population. *)
let zipf rng n =
  let weights = Array.init n (fun r -> 1.0 /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  fun () ->
    let x = float_of_int (Rng.int rng 1_000_000) /. 1e6 *. total in
    let rec scan r acc =
      if r >= n - 1 then r
      else
        let acc = acc +. weights.(r) in
        if x < acc then r else scan (r + 1) acc
    in
    scan 0 0.0

let dist_cluster_16 ~seed meter =
  let n = meter.Meter.n in
  let wc =
    Tracer.span s_cluster (fun () ->
        Webcluster.build ~app_nodes ~db_shards:3 ~user_count:users
          ~work_us:5_000 ())
  in
  let cl = Webcluster.cluster wc in
  let us = Webcluster.users wc in
  let secrets = Array.map (fun (u, _) -> Webcluster.secret_of wc u) us in
  let pick = zipf (Rng.create seed) (Array.length us) in
  let batch () =
    Array.init wave (fun _ ->
        let u = pick () in
        let name, pass = us.(u) in
        (name, pass, name))
  in
  let warm = Array.init 2 (fun _ -> batch ()) in
  let batches = Array.init n (fun _ -> batch ()) in
  let kernels = Cluster.kernels cl in
  let drive b = Webcluster.run_load wc ~concurrency:wave b in
  Array.iter (fun b -> ignore (drive b)) warm;
  (* Host time at every BSP round, from Cluster.drive's per-round hook
     (unused otherwise: no crash plan is armed). *)
  let round_marks = ref [] in
  if meter.Meter.traced then
    Cluster.set_on_tick cl (Some (fun _ -> round_marks := Stats.now_ns () :: !round_marks));
  Meter.attach_probe meter kernels;
  let snap = Webcluster.clock_snapshot wc in
  Meter.begin_phase meter
    ~elapsed:(fun () -> Webcluster.elapsed_since wc snap)
    ~profiles:(fun () -> List.map Kernel.profile kernels);
  for i = 0 to n - 1 do
    Meter.op meter i
      (fun () ->
        let s = Tracer.enter s_run_load in
        let r = drive batches.(i) in
        Tracer.exit s;
        r)
      (fun (finished, outcomes) ->
        finished
        && Array.length outcomes = wave
        && Array.for_all
             (fun o ->
               let own = Webcluster.secret_of wc o.Webcluster.o_user in
               contains o.Webcluster.o_reply own
               && Array.for_all
                    (fun s -> s = own || not (contains o.Webcluster.o_reply s))
                    secrets)
             outcomes)
  done;
  Meter.end_phase meter;
  Meter.detach_probe meter kernels;
  Cluster.set_on_tick cl None;
  let marks = Array.of_list (List.rev !round_marks) in
  let gaps =
    Array.init (max 0 (Array.length marks - 1)) (fun k ->
        float_of_int (marks.(k + 1) - marks.(k)))
  in
  meter.Meter.extra <-
    [
      ("rounds", float_of_int (Array.length marks));
      ("round_ns", Stats.median_f gaps);
    ]

type workload = {
  name : string;
  ops : int;  (** ops per pass *)
  run : seed:int64 -> Meter.t -> unit;
}

let all =
  [
    { name = "ipc-pingpong"; ops = 2000; run = ipc_pingpong };
    { name = "large-file-rand"; ops = 800; run = large_file_rand };
    { name = "wget"; ops = 50; run = wget };
    { name = "dist-cluster-16"; ops = 30; run = dist_cluster_16 };
  ]
