module Faults = Histar_faults.Faults
module Schedule = Faults.Schedule
module Clock = Histar_util.Sim_clock
module Rng = Histar_util.Rng
module Disk = Histar_disk.Disk
module Store = Histar_store.Store
module Kernel = Histar_core.Kernel
module Sys = Histar_core.Sys
module Fs = Histar_unix.Fs
module Process = Histar_unix.Process
module Hub = Histar_net.Hub
module Addr = Histar_net.Addr
module Sim_host = Histar_net.Sim_host
module Netd = Histar_net.Netd
module Stack = Histar_net.Stack
module Metrics = Histar_metrics.Metrics
module Json = Histar_metrics.Json
open Histar_label

type cell = {
  schedule : string;
  requests : int;
  completed : int;
  corrupt_payloads : int;
  request_retries : int;
  scrub : Store.scrub_report;
  metrics_dump : string;
}

let l1 = Label.make Level.L1

let fail schedule fmt =
  Printf.ksprintf
    (fun msg ->
      raise
        (Check.Falsified
           (Printf.sprintf
              "fault sweep: %s\n  replay with: HISTAR_FAULTS='%s' dune runtest"
              msg
              (Schedule.to_string schedule))))
    fmt

(* The page every request serves and every check compares against:
   pseudo-random bytes derived from the schedule seed, so corruption
   anywhere in the pipeline cannot cancel out. *)
let page_body schedule bytes =
  Rng.bytes (Rng.create (Int64.logxor schedule.Schedule.seed 0x9A6EL)) bytes

let run_cell ?(requests = 3) ?(body_bytes = 8 * 1024) schedule =
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  Metrics.reset ();
  Fun.protect ~finally:(fun () -> Metrics.set_enabled was_enabled) @@ fun () ->
  let clock = Clock.create () in
  let disk =
    Disk.create ?faults:(Faults.Disk_faults.create schedule) ~clock ()
  in
  let store = Store.format ~disk ~wal_sectors:16_384 () in
  let kernel = Kernel.create ~clock ~store () in
  let hub =
    Hub.create ?faults:(Faults.Net_faults.create schedule) ~clock ()
  in
  let server =
    Sim_host.create ~hub ~clock ~ip:"10.0.0.2" ~mac:"www" ()
  in
  let body = page_body schedule body_bytes in
  Sim_host.serve_file server ~port:80 ~content:body;
  let pages = ref [] in
  let retries = ref 0 in
  let init_done = ref false in
  let path r = Printf.sprintf "/srv/page%02d" r in
  let _tid =
    Kernel.spawn kernel ~name:"init" (fun () ->
        let fs = Fs.format_root ~container:(Kernel.root kernel) ~label:l1 in
        let proc =
          Process.boot ~fs ~container:(Kernel.root kernel) ~name:"init" ()
        in
        let i = Sys.cat_create () in
        let netd =
          Netd.start kernel ~hub ~container:(Kernel.root kernel)
            ~ip:(Addr.ip_of_string "10.0.0.1") ~mac:"km" ~taint:i ()
        in
        let scratch =
          Sys.container_create
            ~container:(Process.container proc)
            ~label:(Label.of_list [ (i, Level.L2) ] Level.L1)
            ~quota:2_097_152L "fault-sweep scratch"
        in
        let client =
          Process.spawn proc ~name:"client"
            ~extra_label:[ (i, Level.L2) ]
            ~extra_clearance:[ (i, Level.L2) ]
            (fun _c ->
              let fetch r =
                let attempt () =
                  let sock =
                    Netd.Client.connect_retry netd ~return_container:scratch
                      (Addr.v "10.0.0.2" 80)
                  in
                  let buf = Buffer.create body_bytes in
                  Netd.Client.send netd ~return_container:scratch sock
                    (Printf.sprintf "GET /page%d" r);
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
                (* Request-level retry: a connection the transport gave
                   up on (give-up surfaced as [Netd_error]) is retried
                   from scratch. *)
                let rec go n =
                  match attempt () with
                  | page -> page
                  | exception Netd.Client.Netd_error _ when n > 1 ->
                      incr retries;
                      go (n - 1)
                in
                go 3
              in
              for r = 1 to requests do
                pages := (r, fetch r) :: !pages
              done)
        in
        ignore (Process.wait proc client);
        (* Persist every fetched page durably: the disk-fault side of
           the workload (WAL commits under latent/corrupt writes). *)
        ignore (Fs.mkdir fs "/srv");
        List.iter
          (fun (r, page) ->
            Fs.write_file fs (path r) page;
            Fs.fsync fs (path r))
          (List.rev !pages);
        Sys.sync_all ();
        init_done := true)
  in
  (* Drive to quiescence. [Kernel.run] fires the kernel-side timers
     (netd's retransmission pacemaker); the external server's stack
     only ticks on frame arrival, so when the kernel goes idle with
     the workload incomplete, the server must be holding an armed RTO
     — advance the clock to it and tick. *)
  let rec drive n =
    Kernel.run kernel;
    if not !init_done then begin
      if n <= 0 then fail schedule "simulation stalled (driver bound hit)";
      match Stack.next_timer_deadline (Sim_host.stack server) with
      | Some d ->
          let now = Clock.now clock in
          if d > now then Clock.advance clock (d - now);
          Stack.tick (Sim_host.stack server);
          drive (n - 1)
      | None ->
          fail schedule "simulation stalled with no armed server timer"
    end
  in
  drive 100_000;
  (* Network-level acceptance: every request completed, byte-exact. *)
  let completed = List.length !pages in
  let corrupt =
    List.length (List.filter (fun (_, p) -> not (String.equal p body)) !pages)
  in
  if completed <> requests then
    fail schedule "completed %d of %d requests" completed requests;
  if corrupt > 0 then
    fail schedule "%d of %d payloads corrupted in transit" corrupt requests;
  (* Disk-level acceptance: repair converges, nothing is lost, and the
     repaired store passes whole-disk fsck. *)
  let scrub = Store.scrub store in
  if not scrub.Store.clean then
    fail schedule "scrub did not converge in %d passes" scrub.Store.passes;
  if scrub.Store.lost <> [] then
    fail schedule "scrub lost %d objects" (List.length scrub.Store.lost);
  (match Store.fsck store with
  | () -> ()
  | exception Failure msg -> fail schedule "fsck after scrub: %s" msg);
  (* Re-read every surviving object from the media (checksums verify
     on the way in; transient faults exercise the retry path). *)
  Store.drop_clean_cache store;
  Store.iter_oids store (fun oid -> ignore (Store.get store ~oid));
  {
    schedule = Schedule.to_string schedule;
    requests;
    completed;
    corrupt_payloads = corrupt;
    request_retries = !retries;
    scrub;
    metrics_dump =
      Json.to_string
        (Json.Obj
           (List.map (fun (k, v) -> (k, Json.Int v)) (Metrics.snapshot ())));
  }

let matrix ~seeds =
  let cells =
    List.concat_map
      (fun seed ->
        [
          Schedule.mk ~seed ~disk:Schedule.default_disk ();
          Schedule.mk ~seed ~net:Schedule.default_net ();
          Schedule.mk ~seed ~disk:Schedule.default_disk
            ~net:Schedule.default_net ();
        ])
      seeds
  in
  match seeds with
  | [] -> cells
  | seed :: _ ->
      cells
      @ [
          Schedule.mk ~seed ~disk:Schedule.default_disk
            ~net:
              {
                Schedule.default_net with
                Schedule.flap_period_ms = 400;
                flap_down_ms = 20;
              }
            ();
        ]

let default_seeds () =
  let base = Check.seed () in
  [ base; Int64.add base 1L ]

let sweep ?requests ?body_bytes ?seeds () =
  let seeds = match seeds with Some s -> s | None -> default_seeds () in
  let schedules =
    matrix ~seeds
    @ (match Schedule.of_env () with Some s -> [ s ] | None -> [])
  in
  List.map
    (fun schedule ->
      let first = run_cell ?requests ?body_bytes schedule in
      let second = run_cell ?requests ?body_bytes schedule in
      if not (String.equal first.metrics_dump second.metrics_dump) then
        fail schedule
          "two runs of the same schedule diverged (metrics dumps differ)";
      first)
    schedules

let pp_cell fmt c =
  Format.fprintf fmt
    "%s: %d/%d requests, %d retries, scrub %d passes (%d repaired, %d \
     sectors quarantined)"
    c.schedule c.completed c.requests c.request_retries c.scrub.Store.passes
    c.scrub.Store.repaired c.scrub.Store.quarantined_sectors
